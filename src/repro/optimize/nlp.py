"""Nonlinear programs over named variables, solved with scipy.

The repair formulations produce problems of the shape

    min  g(v)                       (cost of the perturbation)
    s.t. f(v) ⋈ b                   (parametric model-checking constraint)
         lower_k < v_k < upper_k    (stochasticity box constraints)

``NonlinearProgram`` holds named variables so the symbolic layer and the
numeric layer agree on ordering; solving uses SLSQP from several start
points (the constraint surface of a rational function is non-convex, so
multi-start materially improves the feasible-hit rate).  Infeasibility
is reported when no start point yields a feasible local optimum — the
verdict the paper's ``X = 19`` Model Repair case relies on.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as scipy_optimize

from repro.checking.parametric import ParametricConstraint

Assignment = Dict[str, float]

logger = logging.getLogger(__name__)

_STRICT_EPSILON = 1e-9
#: How far a margin (or a box bound) may be missed at a solver point
#: that still counts as feasible.
FEASIBILITY_TOLERANCE = 1e-7
#: SLSQP iteration cap of every local solve.
_MAX_ITERATIONS = 500
#: Half-width of the jitter box used for variables with an infinite bound
#: (centred on the variable's initial value).
_UNBOUNDED_JITTER = 1.0
#: Largest ``starts × variables`` block the fused multi-start path hands
#: SLSQP as one joint program.  Below this, one block-diagonal solve
#: replaces every per-start ``minimize`` call (the dispatch-bound
#: regime); above it, SLSQP's dense BFGS/QP machinery outgrows the saved
#: python overhead and the per-start loop wins.
_JOINT_DIMENSION_LIMIT = 64

#: Joint constraint-row budget: SLSQP's QP subproblem scales with
#: (constraint rows × dimension²), so stacking m starts multiplies both
#: factors.  Past this many joint rows the enlarged subproblem costs
#: more than the saved per-start ``minimize`` overhead — measured on the
#: corpus, problems with several perturbation/row-sum side constraints
#: solve faster per start even though the fused kernel itself is cheap.
_JOINT_CONSTRAINT_LIMIT = 32


class _FusedEvaluation:
    """Per-iterate memo over one stacked kernel.

    SLSQP asks for the constraint vector and its jacobian at the same
    iterate through separate callbacks; one fused kernel call computes
    both, and this memo hands the second request the stored answer.  One
    instance per SLSQP run — the key is the iterate's raw bytes.
    """

    __slots__ = ("kernel", "columns", "dimension", "shifts",
                 "key", "margins", "jacobian")

    def __init__(self, kernel, columns, dimension, shifts):
        self.kernel = kernel
        self.columns = columns
        self.dimension = dimension
        self.shifts = shifts
        self.key = None

    def at(self, x: np.ndarray):
        key = x.tobytes()
        if self.key != key:
            margins, jacobian = self.kernel.margins_and_jacobian(
                x[self.columns]
            )
            full = np.zeros((self.kernel.size, self.dimension))
            full[:, self.columns] = jacobian
            self.key = key
            self.margins = margins - self.shifts
            self.jacobian = full
        return self.margins, self.jacobian


def _linear_block(
    constraints: Sequence["Constraint"], order: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(A, c)`` with ``A[k]·x + c[k]`` the k-th linear constraint's
    shifted margin, columns in ``order``."""
    index = {name: i for i, name in enumerate(order)}
    matrix = np.zeros((len(constraints), len(order)))
    offsets = np.empty(len(constraints))
    for k, constraint in enumerate(constraints):
        coefficients, offset = constraint.linear
        for name, coef in coefficients.items():
            matrix[k, index[name]] += coef
        offsets[k] = offset - constraint._total_shift()
    return matrix, offsets


def _joint_linear_block(
    matrix: np.ndarray, offsets: np.ndarray, blocks: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The linear block of ``blocks`` stacked starts: block-diagonal,
    rows constraint-major (row ``k·blocks + b`` is row ``k`` of block
    ``b``)."""
    rows, dim = matrix.shape
    joint = np.zeros((rows * blocks, blocks * dim))
    for b in range(blocks):
        joint[b::blocks, b * dim : (b + 1) * dim] = matrix
    return joint, np.repeat(offsets, blocks)


class Variable:
    """A named decision variable with box bounds and an initial guess."""

    def __init__(
        self,
        name: str,
        lower: float = -np.inf,
        upper: float = np.inf,
        initial: float = 0.0,
    ):
        if lower > upper:
            raise ValueError(f"variable {name}: lower bound exceeds upper bound")
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)
        self.initial = float(np.clip(initial, lower, upper))

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, [{self.lower}, {self.upper}])"


class Constraint:
    """An inequality ``margin(v) >= 0``.

    ``strict=True`` shifts the margin by a small ε so strict
    inequalities of the PCTL comparison survive the solver's closed
    feasible set; ``shift`` adds a further safety margin so boundary
    optima still verify under exact re-checking.

    ``gradient`` (optional) returns the analytic partials of the *raw*
    margin as a name→value mapping — the shift is constant, so the same
    gradient serves the shifted value; the solver passes it to SLSQP as
    the constraint jacobian instead of finite-differencing.
    ``batch_margin`` (optional) evaluates raw margins for a whole
    ``(m, n)`` matrix of points at once (columns ordered by a ``names``
    sequence); the multi-start seeder screens candidate start points
    through it in one vectorized pass.

    ``stack_spec`` (optional) declares the margin *stackable*: a
    ``(function, sign, bound)`` triple with ``margin = sign · (f − b)``
    for a rational ``f``.  The solver fuses every stackable constraint
    into one :class:`~repro.symbolic.compile.StackedConstraintKernel`,
    so SLSQP sees a single vector-valued constraint instead of N python
    callbacks.

    ``linear`` is set by :meth:`from_linear`: a ``(coefficients,
    offset)`` pair with raw margin ``offset + Σ coef·v``.  The solver
    gathers every linear constraint into one constant-jacobian block
    ``A x + c``.  Constraints with neither declaration (reward
    Q-values) keep their own per-constraint ``margin``/``gradient``
    entry.
    """

    def __init__(
        self,
        margin: Callable[[Assignment], float],
        name: str = "constraint",
        strict: bool = False,
        shift: float = 0.0,
        gradient: Optional[Callable[[Assignment], Mapping[str, float]]] = None,
        batch_margin: Optional[Callable] = None,
        stack_spec: Optional[Tuple] = None,
    ):
        self.margin = margin
        self.name = name
        self.strict = strict
        self.shift = float(shift)
        self.gradient = gradient
        self.batch_margin = batch_margin
        self.stack_spec = stack_spec
        self.linear: Optional[Tuple[Dict[str, float], float]] = None

    @classmethod
    def from_linear(
        cls,
        coefficients: Mapping[str, float],
        offset: float,
        name: str = "constraint",
    ) -> "Constraint":
        """The linear constraint ``offset + Σ coef·v ≥ 0``.

        ``margin``, ``gradient`` and ``batch_margin`` are all built from
        the one ``(coefficients, offset)`` form, which the solver reads
        directly (see :meth:`NonlinearProgram.solve`).
        """
        coefficients = {n: float(c) for n, c in coefficients.items()}
        offset = float(offset)

        def margin(assignment: Assignment) -> float:
            return offset + sum(
                coef * assignment[n] for n, coef in coefficients.items()
            )

        def gradient(assignment: Assignment) -> Dict[str, float]:
            return dict(coefficients)

        def batch_margin(points, names) -> np.ndarray:
            columns = [names.index(n) for n in coefficients]
            matrix = np.asarray(points, dtype=float)
            return offset + matrix[:, columns] @ np.array(
                list(coefficients.values())
            )

        constraint = cls(
            margin, name=name, gradient=gradient, batch_margin=batch_margin
        )
        constraint.linear = (coefficients, offset)
        return constraint

    def _total_shift(self) -> float:
        return self.shift + (_STRICT_EPSILON if self.strict else 0.0)

    def value(self, assignment: Assignment) -> float:
        """The (possibly ε-shifted) margin at a point."""
        return float(self.margin(assignment)) - self._total_shift()

    def batch_values(self, points, names) -> "np.ndarray":
        """Shifted margins for an ``(m, n)`` matrix (requires the hook)."""
        raw = np.asarray(self.batch_margin(points, names), dtype=float)
        return raw - self._total_shift()

    def satisfied(self, assignment: Assignment) -> bool:
        """Whether the constraint holds within tolerance."""
        return self.value(assignment) >= -FEASIBILITY_TOLERANCE

    def __repr__(self) -> str:
        return f"Constraint({self.name!r}, strict={self.strict})"


def constraint_from_parametric(
    parametric: ParametricConstraint,
    name: str = "pctl",
    safety_margin: float = 1e-6,
) -> Constraint:
    """Adapt a parametric model-checking constraint ``f(v) ⋈ b``.

    ``safety_margin`` keeps solutions strictly inside the feasible set;
    without it, boundary optima can fail the exact concrete re-check by
    a rounding hair.  The margin is relative to the bound's magnitude.
    The margin, its analytic gradient and the batch screener all run
    through the constraint's numpy kernel
    (:meth:`ParametricConstraint.compiled`).
    """
    return Constraint(
        margin=parametric.fast_margin,
        name=name,
        strict=parametric.comparison in ("<", ">"),
        shift=safety_margin * max(1.0, abs(parametric.bound)),
        gradient=parametric.margin_gradient,
        batch_margin=parametric.margin_batch,
        stack_spec=(parametric.function, parametric._sign, parametric.bound),
    )


class OptimizationResult:
    """Outcome of solving a nonlinear program.

    Attributes
    ----------
    feasible:
        Whether a point satisfying every constraint was found.
    assignment:
        The best feasible point (or the least-infeasible one otherwise).
    objective_value:
        Objective at ``assignment``.
    starts_tried:
        Number of start points attempted.
    message:
        Human-readable solver summary.
    solver_stats:
        Aggregate SLSQP accounting across all starts: ``iterations``,
        ``function_evaluations``, ``starts_converged``, ``starts_failed``
        (previously swallowed; surfaced for the service telemetry).
    """

    def __init__(
        self,
        feasible: bool,
        assignment: Assignment,
        objective_value: float,
        starts_tried: int,
        message: str,
        solver_stats: Optional[Dict[str, int]] = None,
    ):
        self.feasible = feasible
        self.assignment = assignment
        self.objective_value = objective_value
        self.starts_tried = starts_tried
        self.message = message
        self.solver_stats = dict(solver_stats or {})

    def __repr__(self) -> str:
        return (
            f"OptimizationResult(feasible={self.feasible}, "
            f"objective={self.objective_value:.6g}, "
            f"assignment={ {k: round(v, 6) for k, v in self.assignment.items()} })"
        )


class NonlinearProgram:
    """A smooth constrained minimisation over named variables.

    Examples
    --------
    >>> program = NonlinearProgram(
    ...     variables=[Variable("x", -1, 1), Variable("y", -1, 1)],
    ...     objective=lambda v: v["x"] ** 2 + v["y"] ** 2,
    ...     constraints=[Constraint(lambda v: v["x"] + v["y"] - 1.0)],
    ... )
    >>> result = program.solve()
    >>> result.feasible
    True
    >>> round(result.assignment["x"], 3)
    0.5
    """

    def __init__(
        self,
        variables: Sequence[Variable],
        objective: Callable[[Assignment], float],
        constraints: Sequence[Constraint] = (),
        objective_gradient: Optional[
            Callable[[Assignment], Mapping[str, float]]
        ] = None,
    ):
        if not variables:
            raise ValueError("program needs at least one variable")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.variables = list(variables)
        self.objective = objective
        #: Optional analytic partials of the objective (name→value
        #: mapping); when present it is passed to SLSQP as ``jac=``.
        #: An objective that publishes ``quadratic(order) -> Q`` (a
        #: symmetric matrix with ``objective(v) = xᵀQx``) is evaluated
        #: as ``xᵀQx`` and ``2Qx`` on the solver's vector instead.
        self.objective_gradient = objective_gradient
        self.constraints = list(constraints)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _to_assignment(self, vector: np.ndarray) -> Assignment:
        return {
            variable.name: float(value)
            for variable, value in zip(self.variables, vector)
        }

    def _start_points(
        self, extra_starts: int, seed: int, oversample: int = 1
    ) -> List[np.ndarray]:
        rng = np.random.default_rng(seed)
        lows = np.array([v.lower for v in self.variables])
        highs = np.array([v.upper for v in self.variables])
        initials = np.array([v.initial for v in self.variables])
        bounded = np.isfinite(lows) & np.isfinite(highs)
        if not bounded.all():
            # Clamping an infinite bound to ±1 (the old behaviour) can
            # place every start outside the feasible region of a
            # one-sided-bounded variable (e.g. lower=2, upper=inf);
            # jitter around the initial value instead.
            names = [
                v.name for v, is_bounded in zip(self.variables, bounded)
                if not is_bounded
            ]
            logger.warning(
                "variables %s have an infinite bound; jittered start points "
                "are centred on their initial values instead of the box",
                names,
            )
        span_low = np.where(bounded, lows, initials - _UNBOUNDED_JITTER)
        span_high = np.where(bounded, highs, initials + _UNBOUNDED_JITTER)
        points = [initials.copy()]
        # Include the box midpoint (the initial value where unbounded)
        # and uniform jitter over the (possibly recentred) box.
        midpoints = initials.copy()
        midpoints[bounded] = (lows[bounded] + highs[bounded]) / 2.0
        points.append(midpoints)
        for _ in range(extra_starts * max(1, oversample)):
            draw = span_low + rng.random(len(self.variables)) * (
                span_high - span_low
            )
            points.append(np.clip(draw, lows, highs))
        return points

    def _screen_starts(
        self,
        starts: List[np.ndarray],
        keep: int,
        stack=None,
        columns=None,
        shifts=None,
        linear=None,
        skip_ids=frozenset(),
    ) -> List[np.ndarray]:
        """Vectorized multi-start seeding over an oversampled candidate pool.

        The initial point and the box midpoint (``starts[:2]``) always
        survive; the random candidates are scored by their worst shifted
        margin (higher is closer to feasible) and only the ``keep`` most
        promising ones are solved.  With a stacked kernel the whole
        ``(starts × constraints)`` margin matrix comes from **one**
        fused batch call, the linear block ``(A, c)`` from one
        ``X Aᵀ + c``; remaining batch-capable constraints contribute
        one ``evaluate_batch`` pass each.
        """
        fixed, candidates = starts[:2], starts[2:]
        if len(candidates) <= keep:
            return starts
        names = [v.name for v in self.variables]
        matrix = np.stack(candidates)
        score = np.full(len(candidates), np.inf)
        screened = False
        if stack is not None:
            margins = stack.margins_batch(matrix[:, columns]) - shifts
            margins = np.where(np.isfinite(margins), margins, -np.inf)
            score = np.minimum(score, margins.min(axis=1))
            screened = True
        if linear is not None:
            matrix_a, offsets = linear
            score = np.minimum(score, (matrix @ matrix_a.T + offsets).min(axis=1))
            screened = True
        for constraint in self.constraints:
            if id(constraint) in skip_ids or constraint.batch_margin is None:
                continue
            try:
                margins = constraint.batch_values(matrix, names)
            except (ValueError, KeyError):
                # A constraint over parameters outside this program
                # cannot be screened; skip it rather than mis-rank.
                continue
            screened = True
            margins = np.where(np.isfinite(margins), margins, -np.inf)
            score = np.minimum(score, margins)
        if not screened:
            return starts
        ranked = np.argsort(-score, kind="stable")[:keep]
        # Preserve draw order among the survivors so the winning
        # assignment reduction stays deterministic.
        return fixed + [candidates[i] for i in sorted(ranked)]

    # ------------------------------------------------------------------
    # Stacked-kernel plumbing
    # ------------------------------------------------------------------
    def _auto_stack(self, members: List[Constraint]):
        """Build (and memoize on the program) a fused kernel for ``members``.

        A one-row stack shares its function's cached compiled arrays, so
        nothing is lowered twice.
        """
        from repro.symbolic.compile import StackedConstraintKernel

        key = tuple(id(constraint) for constraint in members)
        cached = getattr(self, "_stack_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1]
        kernel = StackedConstraintKernel(
            [constraint.stack_spec for constraint in members]
        )
        self._stack_cache = (key, kernel)
        return kernel

    def _resolve_stack(self, stacked):
        """``(members, kernel)`` for the fused path, or ``([], None)``.

        A :class:`StackedConstraintKernel` is used as given (the repair
        engine passes the CheckCache-memoized one); ``None`` builds a
        kernel from the stackable constraints' specs.  Kernels whose
        parameters are not all program variables fall back to the
        per-constraint path rather than mis-evaluate.
        """
        members = [c for c in self.constraints if c.stack_spec is not None]
        if not members:
            return [], None
        from repro.symbolic.compile import StackedConstraintKernel

        if isinstance(stacked, StackedConstraintKernel):
            kernel = stacked
            if kernel.size != len(members):
                raise ValueError(
                    f"stacked kernel has {kernel.size} rows but the program "
                    f"has {len(members)} stackable constraints"
                )
        else:
            kernel = self._auto_stack(members)
        if not set(kernel.params) <= {v.name for v in self.variables}:
            return [], None
        return members, kernel

    def _run_joint(
        self,
        starts: List[np.ndarray],
        stack,
        columns: np.ndarray,
        shifts: np.ndarray,
        others: List[Constraint],
        bounds,
        order: List[str],
        linear,
        quadratic: Optional[np.ndarray],
    ):
        """One block-diagonal SLSQP solve over every start at once.

        The multi-start candidates become independent blocks of a single
        joint program (separable objective, block-diagonal jacobian), so
        scipy's per-``minimize`` machinery runs once instead of once per
        start, and every constraint margin/derivative for every block
        comes from one fused batch kernel call per iterate, and the
        linear rows from one constant block-diagonal matrix built once
        (:func:`_joint_linear_block`).  Returns
        ``(per-block assignments, stats)`` or ``None`` when the joint
        solve blew up; callers re-verify feasibility per block exactly,
        polish the winner with one warm local solve, and fall back to
        the per-start loop when no block lands feasible.
        """
        blocks = len(starts)
        dim = len(order)
        rows = stack.size
        z0 = np.concatenate(starts)
        joint_bounds = list(bounds) * blocks
        tiled_shifts = np.tile(shifts, blocks)
        # Precomputed fancy indices scatter every block's (rows × params)
        # jacobian into the block-diagonal matrix in one vectorized write.
        block_axis = np.arange(blocks)[:, None, None]
        scatter_rows = block_axis * rows + np.arange(rows)[None, :, None]
        scatter_cols = block_axis * dim + columns[None, None, :]
        memo = {"key": None}

        def fused(z: np.ndarray):
            key = z.tobytes()
            if memo["key"] != key:
                points = z.reshape(blocks, dim)
                margins, jacobian = stack.margins_and_jacobian_batch(
                    points[:, columns]
                )
                flat = margins.ravel() - tiled_shifts
                # SLSQP has no notion of a failed evaluation; clamp the
                # (rare, out-of-domain) non-finite entries so one bad
                # block steers away instead of poisoning the QP.
                flat = np.nan_to_num(flat, nan=-1e30, posinf=1e30, neginf=-1e30)
                stacked_jacobian = np.zeros((blocks * rows, blocks * dim))
                stacked_jacobian[scatter_rows, scatter_cols] = np.nan_to_num(
                    jacobian, nan=0.0, posinf=0.0, neginf=0.0
                )
                memo["key"] = key
                memo["margins"] = flat
                memo["jacobian"] = stacked_jacobian
            return memo

        joint_constraints = [
            {
                "type": "ineq",
                "fun": lambda z: fused(z)["margins"],
                "jac": lambda z: fused(z)["jacobian"],
            }
        ]
        if linear is not None:
            joint_a, joint_offsets = _joint_linear_block(*linear, blocks)
            joint_constraints.append(
                {
                    "type": "ineq",
                    "fun": lambda z: joint_a @ z + joint_offsets,
                    "jac": lambda z: joint_a,
                }
            )
        for constraint in others:
            def other_fun(z, constraint=constraint):
                values = constraint.batch_values(z.reshape(blocks, dim), order)
                return np.nan_to_num(
                    np.asarray(values, dtype=float),
                    nan=-1e30, posinf=1e30, neginf=-1e30,
                )

            def other_jac(z, constraint=constraint):
                points = z.reshape(blocks, dim)
                stacked_jacobian = np.zeros((blocks, blocks * dim))
                for b, row in enumerate(points):
                    partials = constraint.gradient(self._to_assignment(row))
                    stacked_jacobian[b, b * dim : (b + 1) * dim] = [
                        float(partials.get(name, 0.0)) for name in order
                    ]
                return stacked_jacobian

            joint_constraints.append(
                {"type": "ineq", "fun": other_fun, "jac": other_jac}
            )

        if quadratic is not None:

            def joint_objective(z: np.ndarray) -> float:
                points = z.reshape(blocks, dim)
                return float(np.sum((points @ quadratic) * points))

            def joint_gradient(z: np.ndarray) -> np.ndarray:
                return 2.0 * (z.reshape(blocks, dim) @ quadratic).ravel()

        else:

            def joint_objective(z: np.ndarray) -> float:
                points = z.reshape(blocks, dim)
                return float(
                    sum(self.objective(self._to_assignment(row)) for row in points)
                )

            def joint_gradient(z: np.ndarray) -> np.ndarray:
                points = z.reshape(blocks, dim)
                out = np.empty(blocks * dim)
                for b, row in enumerate(points):
                    partials = self.objective_gradient(self._to_assignment(row))
                    out[b * dim : (b + 1) * dim] = [
                        float(partials.get(name, 0.0)) for name in order
                    ]
                return out

        try:
            outcome = scipy_optimize.minimize(
                joint_objective,
                z0,
                jac=joint_gradient,
                method="SLSQP",
                bounds=joint_bounds,
                constraints=joint_constraints,
                options={"maxiter": _MAX_ITERATIONS, "ftol": 1e-12},
            )
        except (ValueError, KeyError, ZeroDivisionError, OverflowError):
            return None
        lower = np.array([b[0] for b in bounds])
        upper = np.array([b[1] for b in bounds])
        points = np.clip(outcome.x.reshape(blocks, dim), lower, upper)
        assignments = [self._to_assignment(row) for row in points]
        stats = {
            "iterations": int(getattr(outcome, "nit", 0) or 0),
            "function_evaluations": int(getattr(outcome, "nfev", 0) or 0),
            "gradient_evaluations": int(getattr(outcome, "njev", 0) or 0),
            "joint_solves": 1,
        }
        return assignments, stats, bool(outcome.success)

    def is_feasible(self, assignment: Assignment) -> bool:
        """Whether every constraint and box bound holds at a point."""
        for variable in self.variables:
            value = assignment[variable.name]
            if value < variable.lower - FEASIBILITY_TOLERANCE:
                return False
            if value > variable.upper + FEASIBILITY_TOLERANCE:
                return False
        return all(c.satisfied(assignment) for c in self.constraints)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        extra_starts: int = 8,
        seed: int = 0,
        stacked=None,
    ) -> OptimizationResult:
        """Multi-start local solve; feasibility is re-verified exactly.

        A start point counts as successful only if scipy converges *and*
        the returned point passes :meth:`is_feasible` — scipy sometimes
        reports success on slightly-violated constraints.

        Every stackable constraint is fused into one
        :class:`~repro.symbolic.compile.StackedConstraintKernel`:
        ``stacked=None`` (default) builds it from their specs, and a
        pre-built kernel is used as given.  SLSQP's constraint and
        jacobian callbacks read one memoized fused evaluation per
        iterate.  Every linear constraint (:meth:`Constraint.from_linear`)
        joins one entry ``A x + c`` with the constant jacobian ``A``,
        and an objective with a ``quadratic`` form is evaluated as
        ``xᵀQx`` / ``2Qx``, both gathered once per solve.  For small enough ``starts × variables`` — all
        starts are solved as one block-diagonal joint program (then the
        winner is re-verified exactly and polished with a single warm
        local solve, falling back to the per-start loop if no block
        lands feasible, so the joint solve can never report infeasible
        where the loop would not).  The per-start loop runs serially,
        in start order.
        """
        bounds = [(v.lower, v.upper) for v in self.variables]
        lower_bounds = np.array([b[0] for b in bounds])
        upper_bounds = np.array([b[1] for b in bounds])
        order = [v.name for v in self.variables]

        members, stack = self._resolve_stack(stacked)
        member_ids = frozenset(id(c) for c in members)
        linear_members = [
            c for c in self.constraints
            if id(c) not in member_ids and c.linear is not None
        ]
        linear = (
            _linear_block(linear_members, order) if linear_members else None
        )
        fused_ids = member_ids | {id(c) for c in linear_members}
        others = [c for c in self.constraints if id(c) not in fused_ids]
        columns = shifts = None
        if stack is not None:
            index = {name: i for i, name in enumerate(order)}
            columns = np.array(
                [index[name] for name in stack.params], dtype=int
            )
            shifts = np.array([c._total_shift() for c in members])

        def gradient_vector(partials_of, x: np.ndarray) -> np.ndarray:
            partials = partials_of(self._to_assignment(x))
            return np.array(
                [float(partials.get(name, 0.0)) for name in order]
            )

        def per_constraint_dicts(constraints):
            entries = []
            for c in constraints:
                entry = {
                    "type": "ineq",
                    "fun": (lambda x, c=c: c.value(self._to_assignment(x))),
                }
                if c.gradient is not None:
                    # Analytic jacobian from the compiled kernel: SLSQP
                    # stops finite-differencing this constraint ((n+1)×
                    # fewer margin evaluations per iteration).
                    entry["jac"] = lambda x, c=c: gradient_vector(
                        c.gradient, x
                    )
                entries.append(entry)
            return entries

        others_dicts = per_constraint_dicts(others)
        if linear is not None:
            # Every linear row in one entry with a constant jacobian.
            matrix_a, offsets = linear
            others_dicts.insert(
                0,
                {
                    "type": "ineq",
                    "fun": lambda x: matrix_a @ x + offsets,
                    "jac": lambda x: matrix_a,
                },
            )

        form = getattr(self.objective, "quadratic", None)
        quadratic = None if form is None else np.asarray(form(order), float)
        objective_jacobian = None
        if quadratic is not None:

            def objective_vector(x: np.ndarray) -> float:
                return float(x @ quadratic @ x)

            objective_jacobian = lambda x: 2.0 * (quadratic @ x)  # noqa: E731
        else:

            def objective_vector(x: np.ndarray) -> float:
                return float(self.objective(self._to_assignment(x)))

            if self.objective_gradient is not None:
                objective_jacobian = lambda x: gradient_vector(  # noqa: E731
                    self.objective_gradient, x
                )

        def run_start(
            start: np.ndarray,
        ) -> Tuple[Optional[Assignment], Dict[str, int]]:
            if stack is not None:
                # One memoized fused evaluation per iterate serves both
                # the vector-valued constraint and its jacobian.
                fused = _FusedEvaluation(stack, columns, len(order), shifts)
                scipy_constraints = [
                    {
                        "type": "ineq",
                        "fun": lambda x: fused.at(x)[0],
                        "jac": lambda x: fused.at(x)[1],
                    }
                ] + others_dicts
            else:
                scipy_constraints = others_dicts
            try:
                outcome = scipy_optimize.minimize(
                    objective_vector,
                    start,
                    jac=objective_jacobian,
                    method="SLSQP",
                    bounds=bounds,
                    constraints=scipy_constraints,
                    options={"maxiter": _MAX_ITERATIONS, "ftol": 1e-12},
                )
            except (ValueError, ZeroDivisionError, OverflowError):
                return None, {"starts_failed": 1}
            stats = {
                "iterations": int(getattr(outcome, "nit", 0) or 0),
                "function_evaluations": int(getattr(outcome, "nfev", 0) or 0),
                "gradient_evaluations": int(getattr(outcome, "njev", 0) or 0),
                "starts_converged": int(bool(outcome.success)),
            }
            assignment = self._to_assignment(
                np.clip(outcome.x, lower_bounds, upper_bounds)
            )
            return assignment, stats

        # Oversample the random draws when any constraint can be
        # batch-screened, then keep only the most promising candidates —
        # scored with one vectorized kernel pass instead of a per-point
        # solve.
        can_screen = stack is not None or any(
            c.batch_margin is not None for c in self.constraints
        )
        oversample = 4 if can_screen and extra_starts > 0 else 1
        starts = self._start_points(extra_starts, seed, oversample)
        if oversample > 1:
            starts = self._screen_starts(
                starts,
                keep=extra_starts,
                stack=stack,
                columns=columns,
                shifts=shifts,
                linear=linear,
                skip_ids=fused_ids,
            )

        solver_stats: Dict[str, int] = {
            "iterations": 0,
            "function_evaluations": 0,
            "starts_converged": 0,
            "starts_failed": 0,
        }

        def merge_stats(stats: Dict[str, int]) -> None:
            for name, count in stats.items():
                solver_stats[name] = solver_stats.get(name, 0) + count

        # Joint block-diagonal path: below _JOINT_DIMENSION_LIMIT, one
        # SLSQP call over all starts at once replaces the per-start loop
        # — this is where the dispatch-bound regime's 3x+ lives, because
        # scipy's per-minimize machinery (not our callbacks) dominates
        # small problems.
        joint_eligible = (
            stack is not None
            and objective_jacobian is not None
            and len(starts) > 1
            and len(starts) * len(order) <= _JOINT_DIMENSION_LIMIT
            and len(starts) * (stack.size + len(linear_members) + len(others))
            <= _JOINT_CONSTRAINT_LIMIT
            and all(
                c.batch_margin is not None and c.gradient is not None
                for c in others
            )
        )
        if joint_eligible:
            joint = self._run_joint(
                starts, stack, columns, shifts, others, bounds, order,
                linear, quadratic,
            )
            if joint is not None:
                assignments, joint_stats, converged = joint
                merge_stats(joint_stats)
                best_block: Optional[Tuple[float, Assignment]] = None
                for assignment in assignments:
                    if self.is_feasible(assignment):
                        value = float(self.objective(assignment))
                        if best_block is None or value < best_block[0]:
                            best_block = (value, assignment)
                if best_block is not None:
                    winner = best_block
                    if not converged:
                        # The joint program is separable, so a converged
                        # joint solve is per-block optimal already; a
                        # rough exit gets one warm polish solve from the
                        # winning block to recover per-start precision.
                        vector = np.array(
                            [best_block[1][name] for name in order]
                        )
                        polished, polish_stats = run_start(vector)
                        merge_stats(polish_stats)
                        if polished is not None and self.is_feasible(polished):
                            value = float(self.objective(polished))
                            if value <= best_block[0]:
                                winner = (value, polished)
                    merge_stats({"starts_converged": 1})
                    return OptimizationResult(
                        feasible=True,
                        assignment=winner[1],
                        objective_value=winner[0],
                        starts_tried=len(starts),
                        message="feasible local optimum found",
                        solver_stats=solver_stats,
                    )
            # No feasible block (or the joint solve blew up): fall
            # through to the exact per-start loop so the joint solve
            # never misses a verdict the loop would find.

        attempts = [run_start(start) for start in starts]

        for _, stats in attempts:
            merge_stats(stats)

        best: Optional[Tuple[float, Assignment]] = None
        least_violation: Optional[Tuple[float, Assignment]] = None
        for assignment, _ in attempts:
            if assignment is None:
                continue
            if self.is_feasible(assignment):
                value = float(self.objective(assignment))
                if best is None or value < best[0]:
                    best = (value, assignment)
            else:
                violation = -min(
                    (c.value(assignment) for c in self.constraints), default=0.0
                )
                if least_violation is None or violation < least_violation[0]:
                    least_violation = (violation, assignment)
        if best is not None:
            return OptimizationResult(
                feasible=True,
                assignment=best[1],
                objective_value=best[0],
                starts_tried=len(starts),
                message="feasible local optimum found",
                solver_stats=solver_stats,
            )
        fallback = (
            least_violation[1]
            if least_violation is not None
            else self._to_assignment(starts[0])
        )
        return OptimizationResult(
            feasible=False,
            assignment=fallback,
            objective_value=float(self.objective(fallback)),
            starts_tried=len(starts),
            message="no start point reached a feasible local optimum",
            solver_stats=solver_stats,
        )
