"""Domain types, positional scoring functions, objective metrics, validation.

Conventions used across the whole package:

* alternatives are 1-based indices ``1..m``; ranks (positions) are 1-based,
  position 1 being an agent's most preferred alternative;
* agents are 0-based Python indices into tuples of length ``n``;
* all scores and metric values are exact integers;
* ties anywhere are broken toward the lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

DEC_KINDS = ("borda_dec", "table_dec")
INC_KINDS = ("borda_inc", "table_inc")
SYSTEM_TAGS = ("general", "monroe", "cc")


class ValidationError(ValueError):
    """An assignment violates the feasibility constraints of an instance."""

    def __init__(self, violations: Tuple["Violation", ...]):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


@dataclass(frozen=True)
class Violation:
    """One violated feasibility constraint.

    ``kind`` is one of ``shape``, ``target_range``, ``budget``, ``capacity``,
    ``scoring``.
    """

    kind: str
    detail: str


@dataclass(frozen=True)
class Profile:
    """Strict preference orders of ``n`` agents over alternatives ``1..m``."""

    n: int
    m: int
    orders: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError("profile needs at least one agent and one alternative")
        if len(self.orders) != self.n:
            raise ValueError(f"expected {self.n} orders, got {len(self.orders)}")
        full = frozenset(range(1, self.m + 1))
        for i, order in enumerate(self.orders):
            if len(order) != self.m or frozenset(order) != full:
                raise ValueError(
                    f"order of agent {i} is not a permutation of 1..{self.m}"
                )

    @classmethod
    def from_orders(cls, orders: Sequence[Sequence[int]]) -> "Profile":
        orders = tuple(tuple(int(a) for a in order) for order in orders)
        if not orders:
            raise ValueError("profile needs at least one agent")
        return cls(n=len(orders), m=len(orders[0]), orders=orders)

    @cached_property
    def positions(self) -> Tuple[Tuple[int, ...], ...]:
        """``positions[i][a - 1]`` is the 1-based rank of alternative ``a`` for agent ``i``."""
        table = []
        for order in self.orders:
            row = [0] * self.m
            for rank, alt in enumerate(order, start=1):
                row[alt - 1] = rank
            table.append(tuple(row))
        return tuple(table)

    def position(self, agent: int, alternative: int) -> int:
        return self.positions[agent][alternative - 1]


@dataclass(frozen=True)
class ScoringFunction:
    """A positional scoring function family evaluated at (position, m).

    ``*_dec`` kinds measure satisfaction (strictly decreasing, 0 at the last
    position); ``*_inc`` kinds measure dissatisfaction (strictly increasing,
    0 at the first position).  Table kinds extend to smaller ``m`` the way
    the families are built: decreasing tables are addressed from the bottom
    (values are prepended as ``m`` grows), increasing tables from the top
    (values are appended).
    """

    kind: str
    table: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in DEC_KINDS + INC_KINDS:
            raise ValueError(f"unknown scoring kind {self.kind!r}")
        if self.kind.startswith("table"):
            if not self.table:
                raise ValueError("table kinds need a non-empty value table")
            diffs = [b - a for a, b in zip(self.table, self.table[1:])]
            if self.kind == "table_dec":
                if any(d >= 0 for d in diffs) or self.table[-1] != 0:
                    raise ValueError(
                        "decreasing table must be strictly decreasing and end at 0"
                    )
            else:
                if any(d <= 0 for d in diffs) or self.table[0] != 0:
                    raise ValueError(
                        "increasing table must be strictly increasing and start at 0"
                    )
        elif self.table is not None:
            raise ValueError("borda kinds take no table")

    @classmethod
    def borda_dec(cls) -> "ScoringFunction":
        return cls("borda_dec")

    @classmethod
    def borda_inc(cls) -> "ScoringFunction":
        return cls("borda_inc")

    @classmethod
    def from_table_dec(cls, values: Sequence[int]) -> "ScoringFunction":
        return cls("table_dec", tuple(int(v) for v in values))

    @classmethod
    def from_table_inc(cls, values: Sequence[int]) -> "ScoringFunction":
        return cls("table_inc", tuple(int(v) for v in values))

    @property
    def is_decreasing(self) -> bool:
        return self.kind in DEC_KINDS

    def covers(self, m: int) -> bool:
        """Whether this function is defined for profiles with ``m`` alternatives."""
        if self.table is None:
            return True
        return len(self.table) >= m

    def values(self, m: int) -> Tuple[int, ...]:
        """Score vector among ``m`` alternatives: ``values(m)[p - 1]`` is
        ``score(self, p, m)``; raises its ``ValueError`` when a table does
        not cover ``m``."""
        return tuple(score(self, p, m) for p in range(1, m + 1))


def score(psf: ScoringFunction, position: int, m: int) -> int:
    """Value of ``psf`` at a 1-based ``position`` among ``m`` alternatives."""
    if not 1 <= position <= m:
        raise ValueError(f"position {position} out of range 1..{m}")
    if psf.kind == "borda_dec":
        return m - position
    if psf.kind == "borda_inc":
        return position - 1
    if not psf.covers(m):
        raise ValueError(
            f"table covers {len(psf.table or ())} positions, needs {m}"
        )
    assert psf.table is not None
    if psf.kind == "table_dec":
        return psf.table[len(psf.table) - m + position - 1]
    return psf.table[position - 1]


@dataclass(frozen=True)
class Assignment:
    """A total map from agents to alternatives; ``targets[i]`` serves agent ``i``."""

    targets: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("assignment must cover at least one agent")
        if any(not isinstance(t, int) or t < 1 for t in self.targets):
            raise ValueError("assignment targets must be positive integers")

    @classmethod
    def from_targets(cls, targets: Iterable[int]) -> "Assignment":
        return cls(tuple(int(t) for t in targets))

    @cached_property
    def committee(self) -> frozenset:
        """Alternatives with at least one assigned agent."""
        return frozenset(self.targets)


@dataclass(frozen=True)
class Instance:
    """A full allocation instance: profile plus costs, capacities, weights, budget.

    ``system_tag`` records which restriction built it.  ``monroe`` instances
    carry unit costs, budget ``K`` and per-alternative capacity ``ceil(n/K)``;
    ``cc`` instances the same with capacity ``n``.
    """

    profile: Profile
    weights: Tuple[int, ...]
    costs: Tuple[int, ...]
    capacities: Tuple[int, ...]
    budget: int
    system_tag: str = "general"
    committee_size: Optional[int] = None

    def __post_init__(self) -> None:
        n, m = self.profile.n, self.profile.m
        if self.system_tag not in SYSTEM_TAGS:
            raise ValueError(f"unknown system tag {self.system_tag!r}")
        if len(self.weights) != n:
            raise ValueError(f"expected {n} agent weights, got {len(self.weights)}")
        if len(self.costs) != m or len(self.capacities) != m:
            raise ValueError(f"costs and capacities must both have length {m}")
        for name, values in (
            ("weight", self.weights),
            ("cost", self.costs),
            ("capacity", self.capacities),
        ):
            if any(v < 1 for v in values):
                raise ValueError(f"every {name} must be a positive integer")
        if self.budget < 1:
            raise ValueError("budget must be a positive integer")
        if self.system_tag in ("monroe", "cc"):
            k = self.committee_size
            if k is None or not 1 <= k <= m:
                raise ValueError(f"{self.system_tag} instance needs 1 <= K <= {m}")
            if any(c != 1 for c in self.costs) or self.budget != k:
                raise ValueError(
                    f"{self.system_tag} instance needs unit costs and budget K"
                )
            cap = math.ceil(n / k) if self.system_tag == "monroe" else n
            if any(c != cap for c in self.capacities):
                raise ValueError(
                    f"{self.system_tag} instance needs every capacity equal to {cap}"
                )

    @property
    def has_unit_weights(self) -> bool:
        return all(w == 1 for w in self.weights)


@dataclass(frozen=True)
class SolveReport:
    """Result of one solver run; ``value`` re-evaluates the named metric."""

    assignment: Assignment
    objective: str
    value: int
    algorithm: str
    seed: Optional[int] = None
    elapsed: float = 0.0


def validate_assignment(
    instance: Instance,
    psf: Optional[ScoringFunction],
    assignment: Assignment,
) -> Tuple[Violation, ...]:
    """Check an assignment against every feasibility clause of the instance.

    Returns the (possibly empty) tuple of violated constraints instead of
    raising, so callers decide severity.  ``psf`` is optional and only
    checked for covering ``m``.
    """
    n, m = instance.profile.n, instance.profile.m
    violations = []
    if len(assignment.targets) != n:
        violations.append(
            Violation(
                "shape",
                f"assignment covers {len(assignment.targets)} agents, instance has {n}",
            )
        )
        return tuple(violations)
    if psf is not None and not psf.covers(m):
        violations.append(
            Violation("scoring", f"scoring table does not cover m={m} positions")
        )
    out_of_range = sorted({t for t in assignment.targets if not 1 <= t <= m})
    for t in out_of_range:
        violations.append(
            Violation("target_range", f"target alternative {t} out of range 1..{m}")
        )
    in_range = [t for t in assignment.targets if 1 <= t <= m]
    committee = sorted(set(in_range))
    total_cost = sum(instance.costs[a - 1] for a in committee)
    if total_cost > instance.budget:
        violations.append(
            Violation(
                "budget",
                f"committee cost {total_cost} exceeds budget {instance.budget}",
            )
        )
    load = {a: 0 for a in committee}
    for agent, t in enumerate(assignment.targets):
        if 1 <= t <= m:
            load[t] += instance.weights[agent]
    for a in committee:
        if load[a] > instance.capacities[a - 1]:
            violations.append(
                Violation(
                    "capacity",
                    f"alternative {a} carries weight {load[a]}, capacity "
                    f"{instance.capacities[a - 1]}",
                )
            )
    return tuple(violations)


def _checked_scores(
    instance: Instance, psf: ScoringFunction, assignment: Assignment
) -> list:
    violations = validate_assignment(instance, psf, assignment)
    if violations:
        raise ValidationError(violations)
    profile = instance.profile
    vals = psf.values(profile.m)
    return [
        vals[row[t - 1] - 1] for row, t in zip(profile.positions, assignment.targets)
    ]


def metric_l1(
    instance: Instance, psf: ScoringFunction, assignment: Assignment
) -> int:
    """Total (dis)satisfaction: sum over agents of the score at their target's rank."""
    return sum(_checked_scores(instance, psf, assignment))


def metric_extreme(
    instance: Instance,
    psf: ScoringFunction,
    assignment: Assignment,
    mode: str,
) -> int:
    """Score of the extreme agent: ``max`` for the worst-off under a
    dissatisfaction function, ``min`` for the least satisfied under a
    satisfaction function."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    scores = _checked_scores(instance, psf, assignment)
    return max(scores) if mode == "max" else min(scores)


def metric_min_delta(
    instance: Instance,
    psf: ScoringFunction,
    assignment: Assignment,
    delta,
) -> int:
    """Egalitarian value after discarding up to a ``delta`` fraction of agents.

    Sorts per-agent scores ascending, drops the ``floor(delta * n)`` smallest
    and returns the minimum of the rest; the maximizing choice of discarded
    agents is always the worst-off ones.
    """
    from fractions import Fraction

    d = Fraction(delta)
    if not 0 <= d < 1:
        raise ValueError(f"delta must lie in [0, 1), got {delta!r}")
    scores = sorted(_checked_scores(instance, psf, assignment))
    dropped = int(d * instance.profile.n)
    return scores[dropped]


def assignment_cost(instance: Instance, assignment: Assignment) -> int:
    """Total cost of the committee induced by the assignment."""
    m = instance.profile.m
    for t in assignment.committee:
        if not 1 <= t <= m:
            raise ValueError(f"target alternative {t} out of range 1..{m}")
    return sum(instance.costs[a - 1] for a in assignment.committee)
