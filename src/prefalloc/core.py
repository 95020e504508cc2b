"""Domain types, positional scoring functions, objective metrics, validation.

Conventions used across the whole package:

* alternatives are 1-based indices ``1..m``; ranks (positions) are 1-based,
  position 1 being an agent's most preferred alternative;
* agents are 0-based Python indices into tuples of length ``n``;
* all scores and metric values are exact integers;
* ties anywhere are broken toward the lowest index.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

DEC_KINDS = ("borda_dec", "table_dec")
INC_KINDS = ("borda_inc", "table_inc")
SYSTEM_TAGS = ("general", "monroe", "cc")


_set = object.__setattr__


def _integers(values: Iterable) -> bool:
    """Whether every value is an ``int`` and none a ``bool``, read from the
    set of their types (one pass)."""
    return all(t is not bool and issubclass(t, int) for t in set(map(type, values)))


class _Record:
    """Base of the package's immutable value types.

    A subclass lists its fields, in constructor order, in ``__match_args__``,
    keeps them in ``__slots__`` and stores them once, from ``__init__``,
    through :meth:`_fill`.  Setting or deleting an attribute afterwards
    raises ``AttributeError``.  ``==`` and ``hash`` compare the field values,
    and only objects of the same class compare equal; ``repr`` is
    ``Name(field=value, ...)``; copies and pickles are rebuilt through the
    constructor, so they are validated again.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(
            f"cannot assign {type(value).__name__} to field {name!r} of an "
            f"immutable {type(self).__name__}"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"cannot delete field {name!r} of an immutable {type(self).__name__}"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, self._values()


class ValidationError(ValueError):
    """An assignment violates the feasibility constraints of an instance."""

    def __init__(self, violations: tuple[Violation, ...]):
        self.violations = violations
        super().__init__("; ".join(v.detail for v in violations))


class Violation(_Record):
    """One violated feasibility constraint (an immutable record).

    ``kind`` is one of ``shape``, ``target_range``, ``budget``, ``capacity``,
    ``balance``, ``scoring``.
    """

    __slots__ = __match_args__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str) -> None:
        self._fill(kind, detail)


class Profile(_Record):
    """Strict preference orders of ``n`` agents over alternatives ``1..m``
    (an immutable record; :attr:`positions` is built on first use)."""

    __match_args__ = ("n", "m", "orders")
    __slots__ = __match_args__ + ("_positions",)

    def __init__(self, n: int, m: int, orders: tuple[tuple[int, ...], ...]) -> None:
        if not _integers((n, m)):
            raise ValueError("profile sizes n and m must be integers")
        if n < 1 or m < 1:
            raise ValueError("profile needs at least one agent and one alternative")
        if len(orders) != n:
            raise ValueError(f"expected {n} orders, got {len(orders)}")
        if not _integers(chain.from_iterable(orders)):
            raise ValueError("order entries must be integers")
        full = frozenset(range(1, m + 1))
        for i, order in enumerate(orders):
            if len(order) != m or frozenset(order) != full:
                raise ValueError(f"order of agent {i} is not a permutation of 1..{m}")
        self._fill(n, m, orders)
        _set(self, "_positions", None)

    @classmethod
    def from_orders(cls, orders: Sequence[Sequence[int]]) -> Profile:
        orders = tuple(tuple(order) for order in orders)
        if not orders:
            raise ValueError("profile needs at least one agent")
        return cls(n=len(orders), m=len(orders[0]), orders=orders)

    @property
    def positions(self) -> tuple[tuple[int, ...], ...]:
        """``positions[i][a - 1]`` is the 1-based rank of alternative ``a`` for agent ``i``."""
        if self._positions is None:
            table = []
            for order in self.orders:
                row = [0] * self.m
                for rank, alt in enumerate(order, start=1):
                    row[alt - 1] = rank
                table.append(tuple(row))
            _set(self, "_positions", tuple(table))
        return self._positions


def _trusted_profile(n: int, m: int, orders: tuple[tuple[int, ...], ...]) -> Profile:
    """A :class:`Profile` filled without the constructor's checks, for
    ``n, m >= 1`` and ``n`` orders that the caller has already checked, or
    built, as permutations of ``1..m`` with ``int`` entries.  Only the
    parser and the generators in ``instances`` call it; copies and pickles
    still go through the checking constructor."""
    profile = object.__new__(Profile)
    profile._fill(n, m, orders)
    _set(profile, "_positions", None)
    return profile


class ScoringFunction(_Record):
    """A positional scoring function family evaluated at (position, m), as
    an immutable record.

    ``*_dec`` kinds measure satisfaction (strictly decreasing, 0 at the last
    position); ``*_inc`` kinds measure dissatisfaction (strictly increasing,
    0 at the first position).  Table kinds extend to smaller ``m`` the way
    the families are built: decreasing tables are addressed from the bottom
    (values are prepended as ``m`` grows), increasing tables from the top
    (values are appended).
    """

    __slots__ = __match_args__ = ("kind", "table")

    def __init__(self, kind: str, table: tuple[int, ...] | None = None) -> None:
        if kind not in DEC_KINDS + INC_KINDS:
            raise ValueError(f"unknown scoring kind {kind!r}")
        if kind.startswith("table"):
            if not table:
                raise ValueError("table kinds need a non-empty value table")
            if not _integers(table):
                raise ValueError("table entries must be integers")
            diffs = [b - a for a, b in zip(table, table[1:])]
            if kind == "table_dec":
                if any(d >= 0 for d in diffs) or table[-1] != 0:
                    raise ValueError(
                        "decreasing table must be strictly decreasing and end at 0"
                    )
            else:
                if any(d <= 0 for d in diffs) or table[0] != 0:
                    raise ValueError(
                        "increasing table must be strictly increasing and start at 0"
                    )
        elif table is not None:
            raise ValueError("borda kinds take no table")
        self._fill(kind, table)

    @classmethod
    def borda_dec(cls) -> ScoringFunction:
        return cls("borda_dec")

    @classmethod
    def borda_inc(cls) -> ScoringFunction:
        return cls("borda_inc")

    @classmethod
    def from_table_dec(cls, values: Iterable[int]) -> ScoringFunction:
        return cls("table_dec", tuple(values))

    @classmethod
    def from_table_inc(cls, values: Iterable[int]) -> ScoringFunction:
        return cls("table_inc", tuple(values))

    @property
    def is_decreasing(self) -> bool:
        return self.kind in DEC_KINDS

    def covers(self, m: int) -> bool:
        """Whether this function is defined for profiles with ``m`` alternatives."""
        if self.table is None:
            return True
        return len(self.table) >= m

    def values(self, m: int) -> tuple[int, ...]:
        """Score vector among ``m`` alternatives, ``values(m)[p - 1]`` the
        score at rank p (:func:`score` reads it).  A decreasing table gives
        its last ``m`` values, an increasing one its first ``m``; a table
        that does not cover ``m`` raises ``ValueError``."""
        if self.kind == "borda_dec":
            return tuple(range(m - 1, -1, -1))
        if self.kind == "borda_inc":
            return tuple(range(m))
        table = self.table
        assert table is not None
        if len(table) < m:
            raise ValueError(f"table covers {len(table)} positions, needs {m}")
        return table[len(table) - m:] if self.kind == "table_dec" else table[:m]


def score(psf: ScoringFunction, position: int, m: int) -> int:
    """Value of ``psf`` at a 1-based ``position`` among ``m`` alternatives."""
    if not 1 <= position <= m:
        raise ValueError(f"position {position} out of range 1..{m}")
    return psf.values(m)[position - 1]


class Assignment(_Record):
    """A total map from agents to alternatives; ``targets[i]`` serves agent
    ``i`` (an immutable record; :attr:`committee` is built on first use)."""

    __match_args__ = ("targets",)
    __slots__ = __match_args__ + ("_committee",)

    def __init__(self, targets: tuple[int, ...]) -> None:
        if not targets:
            raise ValueError("assignment must cover at least one agent")
        if not _integers(targets) or min(targets) < 1:
            raise ValueError("assignment targets must be positive integers")
        self._fill(targets)
        _set(self, "_committee", None)

    @property
    def committee(self) -> frozenset[int]:
        """Alternatives with at least one assigned agent."""
        if self._committee is None:
            _set(self, "_committee", frozenset(self.targets))
        return self._committee


def _balanced_loads(n: int, k: int) -> tuple[int, int]:
    """The least and the most agents each member of a Monroe committee of
    size ``k`` carries: ``floor(n/k)`` and ``ceil(n/k)``."""
    return n // k, -(-n // k)


class Instance(_Record):
    """A full allocation instance: profile plus costs, capacities and budget
    (an immutable record).  Every agent counts once: a member's load is the
    number of agents assigned to it.

    ``system_tag`` records which restriction built it.  ``monroe`` instances
    carry unit costs, budget ``K`` and per-alternative capacity ``ceil(n/K)``;
    ``cc`` instances the same with capacity ``n``.
    """

    __slots__ = __match_args__ = (
        "profile", "costs", "capacities", "budget", "system_tag", "committee_size",
    )

    def __init__(
        self,
        profile: Profile,
        costs: tuple[int, ...],
        capacities: tuple[int, ...],
        budget: int,
        system_tag: str = "general",
        committee_size: int | None = None,
    ) -> None:
        n, m = profile.n, profile.m
        if system_tag not in SYSTEM_TAGS:
            raise ValueError(f"unknown system tag {system_tag!r}")
        if len(costs) != m or len(capacities) != m:
            raise ValueError(f"costs and capacities must both have length {m}")
        for name, values in (("cost", costs), ("capacity", capacities)):
            if not _integers(values) or min(values) < 1:
                raise ValueError(f"every {name} must be a positive integer")
        if not _integers((budget,)) or budget < 1:
            raise ValueError("budget must be a positive integer")
        if system_tag in ("monroe", "cc"):
            k = committee_size
            if k is None or not 1 <= k <= m:
                raise ValueError(f"{system_tag} instance needs 1 <= K <= {m}")
            if any(c != 1 for c in costs) or budget != k:
                raise ValueError(f"{system_tag} instance needs unit costs and budget K")
            cap = _balanced_loads(n, k)[1] if system_tag == "monroe" else n
            if any(c != cap for c in capacities):
                raise ValueError(
                    f"{system_tag} instance needs every capacity equal to {cap}"
                )
        self._fill(profile, costs, capacities, budget, system_tag, committee_size)


class SolveReport(_Record):
    """Result of one solver run, as an immutable record; ``value``
    re-evaluates the named metric."""

    __slots__ = __match_args__ = (
        "assignment", "objective", "value", "algorithm", "seed", "elapsed",
    )

    def __init__(
        self,
        assignment: Assignment,
        objective: str,
        value: int,
        algorithm: str,
        seed: int | None = None,
        elapsed: float = 0.0,
    ) -> None:
        self._fill(assignment, objective, value, algorithm, seed, elapsed)


def validate_assignment(
    instance: Instance,
    psf: ScoringFunction | None,
    assignment: Assignment,
) -> tuple[Violation, ...]:
    """Check an assignment against every feasibility clause of the instance.

    Returns the (possibly empty) tuple of violated constraints instead of
    raising, so callers decide severity.  ``psf`` is optional and only
    checked for covering ``m``.  A Monroe assignment must also be balanced:
    ``min(n, K)`` members, each carrying at least ``floor(n/K)`` agents (the
    capacity clause holds each to ``ceil(n/K)``).
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
    for t in in_range:
        load[t] += 1
    for a in committee:
        if load[a] > instance.capacities[a - 1]:
            violations.append(
                Violation(
                    "capacity",
                    f"alternative {a} carries {load[a]} agents, capacity "
                    f"{instance.capacities[a - 1]}",
                )
            )
    if instance.system_tag == "monroe":
        k = instance.committee_size
        assert k is not None
        if len(committee) != min(n, k):
            violations.append(
                Violation(
                    "balance",
                    f"committee has {len(committee)} members, Monroe needs {min(n, k)}",
                )
            )
        least = _balanced_loads(n, k)[0]
        for a in committee:
            if load[a] < least:
                violations.append(
                    Violation(
                        "balance",
                        f"alternative {a} carries {load[a]} agents, minimum {least}",
                    )
                )
    return tuple(violations)


def _checked_scores(
    instance: Instance, psf: ScoringFunction, assignment: Assignment
) -> list[int]:
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

    # A float is read as written (0.3 is 3/10), not as its binary value.
    d = Fraction(repr(delta)) if isinstance(delta, float) else Fraction(delta)
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
