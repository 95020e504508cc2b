"""Optimal agent-to-committee matchings for a fixed committee.

Given the committee, the remaining problem is a degree-constrained bipartite
b-matching on one integer cost table, column-major: ``table[a - 1][j]`` is
agent j's cost for alternative a (:func:`_cost_table`).
Both objectives run one entry, :func:`_match`, and one kernel function,
:func:`_solve_bounded`, which builds the flow network and runs integer
successive shortest augmenting paths with potentials on it.  The total
objective is one solve.  The egalitarian objectives probe cost levels as
``ceiling``s, from a proven lower bound on the optimal threshold upwards;
the least level whose solve completes is the committee's egalitarian value,
and that solve is its matching.  The entry computes both
proven floors (the CC floor and the load floor) and, under either
objective, refuses a committee whose value cannot be below the caller's
``below`` before any kernel solve: the solvers' skip rules live here alone.

Load bounds are enforced without a general lower-bound reduction: the source
feeds each committee member its mandatory ``lower`` units directly plus a
shared slack pool of ``n - sum(lower)`` units capped at ``upper - lower`` per
member.  A flow of value ``n`` therefore saturates every source edge, which
forces every lower bound.

Tie-breaking is deterministic: committee members are processed in ascending
alternative order, agents in ascending index order, and the Dijkstra heap
breaks distance ties toward the lowest node id.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

from .core import Assignment, Profile, ScoringFunction, _balanced_loads, _integers, _Record

REGIME_KINDS = ("monroe_balanced", "explicit")


class InfeasibleMatchingError(ValueError):
    """No assignment satisfies the requested load bounds."""


class CapacityRegime(_Record):
    """Per-member load bounds imposed on the matching, as an immutable record.

    ``monroe_balanced`` spreads the ``n`` agents as evenly as possible over a
    committee of size ``K`` (each member carries between ``floor(n/K)`` and
    ``ceil(n/K)`` agents); ``explicit`` carries caller-supplied bounds aligned
    with the sorted committee.  Bounds of 0 and ``n`` restrict nothing, and
    the matchers then assign as :func:`match_cc` does.
    """

    __slots__ = __match_args__ = ("kind", "lowers", "uppers")

    def __init__(
        self,
        kind: str,
        lowers: tuple[int, ...] | None = None,
        uppers: tuple[int, ...] | None = None,
    ) -> None:
        if kind not in REGIME_KINDS:
            raise ValueError(f"unknown capacity regime {kind!r}")
        if kind == "explicit":
            if lowers is None or uppers is None:
                raise ValueError("explicit regime needs lower and upper bounds")
            if len(lowers) != len(uppers):
                raise ValueError("lower and upper bound lists differ in length")
            if not _integers((*lowers, *uppers)):
                raise ValueError("bounds must be integers")
            if any(lo < 0 for lo in lowers):
                raise ValueError("lower bounds must be nonnegative")
            if any(hi < lo for lo, hi in zip(lowers, uppers)):
                raise ValueError("upper bounds must dominate lower bounds")
        elif lowers is not None or uppers is not None:
            raise ValueError(f"{kind} regime takes no explicit bounds")
        self._fill(kind, lowers, uppers)

    @classmethod
    def monroe_balanced(cls) -> CapacityRegime:
        return cls("monroe_balanced")

    @classmethod
    def explicit(
        cls, lowers: Sequence[int], uppers: Sequence[int]
    ) -> CapacityRegime:
        return cls("explicit", tuple(lowers), tuple(uppers))

    def bounds_for(self, committee_size: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Resolve (lowers, uppers) for a committee of the given size."""
        k = committee_size
        if self.kind == "monroe_balanced":
            least, most = _balanced_loads(n, k)
            return (least,) * k, (most,) * k
        assert self.lowers is not None and self.uppers is not None
        if len(self.lowers) != k:
            raise ValueError(
                f"explicit bounds cover {len(self.lowers)} members, committee has {k}"
            )
        return self.lowers, self.uppers


def _checked_committee(profile: Profile, committee: Sequence[int]) -> tuple[int, ...]:
    members = tuple(committee)
    if not _integers(members):
        raise ValueError("committee members must be integers")
    members = tuple(sorted(members))
    if not members:
        raise ValueError("committee must be nonempty")
    if len(set(members)) != len(members):
        raise ValueError("committee members must be distinct")
    if members[0] < 1 or members[-1] > profile.m:
        raise ValueError(f"committee members must lie in 1..{profile.m}")
    return members


def _cost_table(profile: Profile, psf: ScoringFunction) -> list[tuple[int, ...]]:
    """The cost table, column-major, one tuple per alternative:
    ``table[a - 1][j]`` is agent j's nonnegative cost for alternative a, the
    score for an increasing function and ``psf(1) - score`` for a decreasing
    one, so the min-cost kernel serves both directions."""
    costs = psf.values(profile.m)
    if psf.is_decreasing:
        costs = tuple(costs[0] - c for c in costs)
    return [tuple([costs[p - 1] for p in ranks]) for ranks in zip(*profile.positions)]


def _solve_bounded(
    table: list[tuple[int, ...]],
    committee: tuple[int, ...],
    lowers: tuple[int, ...],
    uppers: tuple[int, ...],
    ceiling: int | None,
) -> tuple[int, ...] | None:
    """Min-cost full b-matching on the edges within ``ceiling``, or None if none.

    Node 0 is the source and node 1 the slack pool; the ``k`` members follow
    from node 2, the ``n`` agents from node ``2 + k``, and the sink is last.
    Edges are mutable ``[to, cap, cost, rev_index]`` records.  Successive
    shortest paths with Johnson potentials: every path ends on a unit
    agent-sink edge, so each carries one unit, and ``n`` of them complete the
    matching.  Raises :class:`InfeasibleMatchingError` when the load totals
    admit no complete assignment.
    """
    n, k = len(table[0]), len(committee)
    total_lo = sum(lowers)
    total_hi = sum(min(hi, n) for hi in uppers)
    if total_hi < n:
        raise InfeasibleMatchingError(
            f"member upper bounds admit only {total_hi} agents, instance has {n}"
        )
    if total_lo > n:
        raise InfeasibleMatchingError(
            f"member lower bounds require {total_lo} agents, instance has {n}"
        )
    agent0 = 2 + k
    sink = agent0 + n
    graph: list[list[list[int]]] = [[] for _ in range(sink + 1)]

    def add(u: int, v: int, cap: int, cost: int) -> None:
        graph[u].append([v, cap, cost, len(graph[v])])
        graph[v].append([u, 0, -cost, len(graph[u]) - 1])

    for i in range(k):
        if lowers[i] > 0:
            add(0, 2 + i, lowers[i], 0)
    if n - total_lo > 0:
        add(0, 1, n - total_lo, 0)
        for i in range(k):
            slack = min(uppers[i], n) - lowers[i]
            if slack > 0:
                add(1, 2 + i, slack, 0)
    for j in range(n):
        add(agent0 + j, sink, 1, 0)
    for i, alt in enumerate(committee):
        for j, cost in enumerate(table[alt - 1]):
            if ceiling is None or cost <= ceiling:
                add(2 + i, agent0 + j, 1, cost)
    inf = float("inf")
    potential = [0] * (sink + 1)
    for _ in range(n):
        dist = [inf] * (sink + 1)
        dist[0] = 0
        prev: list[list[int]] = [[]] * (sink + 1)  # the edge that reached each node
        heap = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for edge in graph[u]:
                v, cap, cost, _ = edge
                if cap <= 0:
                    continue
                nd = d + cost + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = edge
                    heapq.heappush(heap, (nd, v))
        if dist[sink] == inf:
            return None
        for v in range(sink + 1):
            if dist[v] < inf:
                potential[v] += dist[v]
        v = sink
        while v != 0:
            edge = prev[v]
            edge[1] -= 1
            back = graph[v][edge[3]]
            back[1] += 1
            v = back[0]
    targets = [0] * n
    for i, alt in enumerate(committee):
        for v, cap, _, _ in graph[2 + i]:  # a saturated agent edge serves v
            if v >= agent0 and cap == 0:
                targets[v - agent0] = alt
    return tuple(targets)


def _match(
    profile: Profile,
    table: list[tuple[int, ...]],
    members: tuple[int, ...],
    lowers: tuple[int, ...],
    uppers: tuple[int, ...],
    total: bool,
    below: int | None = None,
) -> tuple[int, Assignment] | None:
    """The optimal value of the sorted ``members`` under the bounds and an
    assignment that reaches it, or None if the value is not below ``below``.

    The value is the sum (``total``) or the largest of the agents' edge
    costs.  Two proven floors bound it from below, folded the same way:
    each agent's least cost over the members (the CC floor), and for each
    member with a lower bound ``lo`` the costs of the ``lo`` agents it must
    carry, at least its ``lo`` cheapest (the load floor; their sum, or the
    ``lo``-th cheapest).  A committee refused by the CC floor sorts no
    column, and one refused by the larger floor runs no kernel solve.
    Bounds of 0 and ``n`` restrict nothing: the CC floor is the value and
    the assignment is :func:`match_cc`'s.

    The total objective is one kernel solve.  The egalitarian threshold
    search probes the floor with the min-cost kernel as a ``ceiling``, then
    bisects the cost levels above it (below ``below``); the probe at the
    threshold returns the assignment.  Load totals that admit no complete
    assignment raise :class:`InfeasibleMatchingError` from the first solve.
    """
    n = profile.n
    fold = sum if total else max
    columns = [table[a - 1] for a in members]
    floor = fold(map(min, zip(*columns)))
    if below is not None and floor >= below:
        return None
    if all(lo == 0 for lo in lowers) and all(hi >= n for hi in uppers):
        return floor, match_cc(profile, members)
    loads = [fold(sorted(column)[:low]) for low, column in zip(lowers, columns) if 0 < low <= n]
    if loads:
        floor = max(floor, fold(loads))
    if below is not None and floor >= below:
        return None
    if total:
        targets = _solve_bounded(table, members, lowers, uppers, None)
        if targets is None:
            raise InfeasibleMatchingError("load bounds admit no complete assignment")
        value = sum(table[t - 1][j] for j, t in enumerate(targets))
        if below is not None and value >= below:
            return None
        return value, Assignment(targets)
    levels = sorted({c for column in columns for c in column if floor <= c})
    if below is not None:
        levels = [c for c in levels if c < below]
    lo, hi, mid, best = 0, len(levels), 0, None
    while lo < hi:
        targets = _solve_bounded(table, members, lowers, uppers, levels[mid])
        if targets is None:
            lo = mid + 1
        else:
            hi, best = mid, targets
        mid = (lo + hi) // 2
    if best is None:
        return None
    return levels[hi], Assignment(best)


def match_cc(profile: Profile, committee: Sequence[int]) -> Assignment:
    """Assign every agent to its best-ranked committee member.

    With unbounded member capacities the agents are independent, so this is
    optimal for the total objective and for both egalitarian objectives.
    """
    members = _checked_committee(profile, committee)
    positions = profile.positions
    targets = []
    for i in range(profile.n):
        row = positions[i]
        targets.append(min(members, key=lambda a: row[a - 1]))
    return Assignment(tuple(targets))


def match_monroe_l1(
    profile: Profile,
    psf: ScoringFunction,
    committee: Sequence[int],
    regime: CapacityRegime,
) -> Assignment:
    """Optimal total-objective matching under the regime's load bounds.

    Maximizes the total score for a decreasing (satisfaction) function and
    minimizes it for an increasing (dissatisfaction) one: both minimize the
    total :func:`_cost_table` cost, and the optimum is exact.
    """
    members = _checked_committee(profile, committee)
    lowers, uppers = regime.bounds_for(len(members), profile.n)
    found = _match(profile, _cost_table(profile, psf), members, lowers, uppers, True)
    assert found is not None  # no ``below``: the optimum is returned
    return found[1]


def match_egalitarian(
    profile: Profile,
    psf: ScoringFunction,
    committee: Sequence[int],
    regime: CapacityRegime,
    mode: str,
) -> Assignment:
    """Optimal extreme-agent matching under the regime's load bounds.

    ``max_min_sat`` maximizes the least satisfied agent's score (decreasing
    function); ``min_max_dissat`` minimizes the most dissatisfied agent's
    score (increasing function).  The optimal threshold is the best of the
    committee's score values at which a saturating b-matching exists on the
    agent-member edges that meet it.  Among matchings at that threshold, the
    one with the best total score is returned (kernel min-cost pass), which
    keeps results deterministic.

    Cost: one n x m cost table and one kernel solve per threshold probe
    (:func:`_match`): the search probes a proven floor first, which is
    usually the threshold, so usually one solve, and otherwise bisects the
    cost levels above it.  Load totals that admit no complete assignment
    raise :class:`InfeasibleMatchingError` from the first probe.
    """
    if mode not in ("max_min_sat", "min_max_dissat"):
        raise ValueError(f"unknown egalitarian mode {mode!r}")
    if mode == "max_min_sat" and not psf.is_decreasing:
        raise ValueError("max_min_sat needs a decreasing (satisfaction) function")
    if mode == "min_max_dissat" and psf.is_decreasing:
        raise ValueError("min_max_dissat needs an increasing (dissatisfaction) function")
    members = _checked_committee(profile, committee)
    lowers, uppers = regime.bounds_for(len(members), profile.n)
    found = _match(profile, _cost_table(profile, psf), members, lowers, uppers, False)
    assert found is not None  # no ``below``: the loosest level completes
    return found[1]
