"""Optimal agent-to-committee matchings for a fixed committee.

Given the committee, the remaining problem is a degree-constrained bipartite
b-matching.  The total objective is solved exactly as an integer min-cost
max-flow (successive shortest augmenting paths with potentials); the
egalitarian objectives grow one network of the same kernel over ascending
score thresholds until a complete assignment fits, then take the min-cost
matching at that threshold.

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
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .core import Assignment, Profile, ScoringFunction

REGIME_KINDS = ("monroe_balanced", "cc_unbounded", "explicit")


class InfeasibleMatchingError(ValueError):
    """No assignment satisfies the requested load bounds."""


@dataclass(frozen=True)
class CapacityRegime:
    """Per-member load bounds imposed on the matching.

    ``monroe_balanced`` spreads the ``n`` agents as evenly as possible over a
    committee of size ``K`` (each member carries between ``floor(n/K)`` and
    ``ceil(n/K)`` agents); ``cc_unbounded`` places no restriction; ``explicit``
    carries caller-supplied bounds aligned with the sorted committee.
    """

    kind: str
    lowers: Optional[Tuple[int, ...]] = None
    uppers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"unknown capacity regime {self.kind!r}")
        if self.kind == "explicit":
            if self.lowers is None or self.uppers is None:
                raise ValueError("explicit regime needs lower and upper bounds")
            if len(self.lowers) != len(self.uppers):
                raise ValueError("lower and upper bound lists differ in length")
            if any(lo < 0 for lo in self.lowers):
                raise ValueError("lower bounds must be nonnegative")
            if any(hi < lo for lo, hi in zip(self.lowers, self.uppers)):
                raise ValueError("upper bounds must dominate lower bounds")
        elif self.lowers is not None or self.uppers is not None:
            raise ValueError(f"{self.kind} regime takes no explicit bounds")

    @classmethod
    def monroe_balanced(cls) -> "CapacityRegime":
        return cls("monroe_balanced")

    @classmethod
    def cc_unbounded(cls) -> "CapacityRegime":
        return cls("cc_unbounded")

    @classmethod
    def explicit(
        cls, lowers: Sequence[int], uppers: Sequence[int]
    ) -> "CapacityRegime":
        return cls("explicit", tuple(lowers), tuple(uppers))

    def bounds_for(self, committee_size: int, n: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Resolve (lowers, uppers) for a committee of the given size."""
        k = committee_size
        if self.kind == "monroe_balanced":
            return (n // k,) * k, (-(-n // k),) * k
        if self.kind == "cc_unbounded":
            return (0,) * k, (n,) * k
        assert self.lowers is not None and self.uppers is not None
        if len(self.lowers) != k:
            raise ValueError(
                f"explicit bounds cover {len(self.lowers)} members, committee has {k}"
            )
        return self.lowers, self.uppers


class _MinCostFlow:
    """Successive shortest augmenting paths with Johnson potentials.

    Works on integer capacities and nonnegative integer costs.  Edges are
    stored as mutable ``[to, cap, cost, rev_index]`` records; the residual of
    a saturated unit edge is 0.
    """

    def __init__(self, n_nodes: int) -> None:
        self.graph: List[List[list]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> Tuple[int, int]:
        self.graph[u].append([v, cap, cost, len(self.graph[v])])
        self.graph[v].append([u, 0, -cost, len(self.graph[u]) - 1])
        return u, len(self.graph[u]) - 1

    def send(self, s: int, t: int, limit: int) -> int:
        """Push up to ``limit`` units from s to t; returns the flow sent."""
        n = len(self.graph)
        inf = float("inf")
        potential = [0] * n
        flow = 0
        while flow < limit:
            dist = [inf] * n
            dist[s] = 0
            prev: List[Optional[Tuple[int, int]]] = [None] * n
            heap = [(0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for idx, edge in enumerate(self.graph[u]):
                    v, cap, cost, _ = edge
                    if cap <= 0:
                        continue
                    nd = d + cost + potential[u] - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev[v] = (u, idx)
                        heapq.heappush(heap, (nd, v))
            if dist[t] == inf:
                break
            for v in range(n):
                if dist[v] < inf:
                    potential[v] += dist[v]
            push = limit - flow
            v = t
            while v != s:
                u, idx = prev[v]  # type: ignore[misc]
                push = min(push, self.graph[u][idx][1])
                v = u
            v = t
            while v != s:
                u, idx = prev[v]  # type: ignore[misc]
                edge = self.graph[u][idx]
                edge[1] -= push
                self.graph[edge[0]][edge[3]][1] += push
                v = u
            flow += push
        return flow


def _checked_committee(profile: Profile, committee: Sequence[int]) -> Tuple[int, ...]:
    members = tuple(sorted(int(a) for a in committee))
    if not members:
        raise ValueError("committee must be nonempty")
    if len(set(members)) != len(members):
        raise ValueError("committee members must be distinct")
    if members[0] < 1 or members[-1] > profile.m:
        raise ValueError(f"committee members must lie in 1..{profile.m}")
    return members


def _network(n: int, lowers: Tuple[int, ...], uppers: Tuple[int, ...]) -> _MinCostFlow:
    """The b-matching network without its member-agent edges.

    Node 0 is the source and node 1 the slack pool; the ``k`` members follow
    from node 2, the ``n`` agents from node ``2 + k``, and the sink is last.
    The source, pool and agent-sink edges are in place.  Raises
    :class:`InfeasibleMatchingError` when the load totals admit no complete
    assignment.
    """
    k = len(lowers)
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
    source, pool = 0, 1
    member0 = 2
    agent0 = 2 + k
    sink = 2 + k + n
    net = _MinCostFlow(sink + 1)
    for i in range(k):
        if lowers[i] > 0:
            net.add_edge(source, member0 + i, lowers[i], 0)
    if n - total_lo > 0:
        net.add_edge(source, pool, n - total_lo, 0)
        for i in range(k):
            slack = min(uppers[i], n) - lowers[i]
            if slack > 0:
                net.add_edge(pool, member0 + i, slack, 0)
    for j in range(n):
        net.add_edge(agent0 + j, sink, 1, 0)
    return net


def _solve_bounded(
    profile: Profile,
    committee: Tuple[int, ...],
    lowers: Tuple[int, ...],
    uppers: Tuple[int, ...],
    edge_cost: Callable[[int, int], int],
    allowed: Optional[Callable[[int, int], bool]],
) -> Optional[Tuple[int, ...]]:
    """Min-cost saturating b-matching, or None if no full matching exists."""
    n = profile.n
    net = _network(n, lowers, uppers)
    agent0, sink = 2 + len(committee), len(net.graph) - 1
    unit_edges = {}
    for i, alt in enumerate(committee):
        for j in range(n):
            if allowed is not None and not allowed(j, alt):
                continue
            unit_edges[(i, j)] = net.add_edge(2 + i, agent0 + j, 1, edge_cost(j, alt))
    if net.send(0, sink, n) < n:
        return None
    targets = [0] * n
    for (i, j), (u, idx) in unit_edges.items():
        if net.graph[u][idx][1] == 0:
            targets[j] = committee[i]
    return tuple(targets)


def _edge_cost(profile: Profile, psf: ScoringFunction) -> Callable[[int, int], int]:
    """Nonnegative cost of serving an agent by an alternative: the score for
    an increasing function, ``psf(1) - score`` for a decreasing one, so the
    min-cost kernel serves both directions.  Read from one score vector."""
    positions = profile.positions
    costs = psf.values(profile.m)
    if psf.is_decreasing:
        costs = tuple(costs[0] - c for c in costs)

    def cost(agent: int, alt: int) -> int:
        return costs[positions[agent][alt - 1] - 1]

    return cost


def match_cc(
    profile: Profile, psf: ScoringFunction, committee: Sequence[int]
) -> Assignment:
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
    total :func:`_edge_cost`, and the optimum is exact.
    """
    members = _checked_committee(profile, committee)
    lowers, uppers = regime.bounds_for(len(members), profile.n)
    if all(lo == 0 for lo in lowers) and all(hi >= profile.n for hi in uppers):
        return match_cc(profile, psf, members)
    cost = _edge_cost(profile, psf)
    targets = _solve_bounded(profile, members, lowers, uppers, cost, None)
    if targets is None:
        raise InfeasibleMatchingError("load bounds admit no complete assignment")
    return Assignment(targets)


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
    agent-member edges that meet it.  Among
    matchings at that threshold, the one with the best total score is
    returned (kernel min-cost pass), which keeps results deterministic.

    Cost: the search adds each level's edges to one network and augments the
    flow it already holds, so it costs about one max-flow (n augmenting
    paths, plus one failed path search per level below the optimum); the
    min-cost pass is one kernel solve.  Load totals that admit no complete
    assignment raise :class:`InfeasibleMatchingError` before the search;
    every other regime reaches a complete assignment at the loosest level.
    """
    if mode not in ("max_min_sat", "min_max_dissat"):
        raise ValueError(f"unknown egalitarian mode {mode!r}")
    if mode == "max_min_sat" and not psf.is_decreasing:
        raise ValueError("max_min_sat needs a decreasing (satisfaction) function")
    if mode == "min_max_dissat" and psf.is_decreasing:
        raise ValueError("min_max_dissat needs an increasing (dissatisfaction) function")
    members = _checked_committee(profile, committee)
    lowers, uppers = regime.bounds_for(len(members), profile.n)
    if all(lo == 0 for lo in lowers) and all(hi >= profile.n for hi in uppers):
        return match_cc(profile, psf, members)
    cost = _edge_cost(profile, psf)
    # Both modes minimize the largest edge cost (a satisfaction floor is a
    # cost ceiling).  Grow one network by ascending cost level: augmenting
    # the flow already held yields the maximum flow of the larger network,
    # so the first level at which the flow reaches n is the optimal ceiling.
    n, agent0 = profile.n, 2 + len(members)
    net = _network(n, lowers, uppers)
    sink = len(net.graph) - 1
    levels: dict = {}
    for i, alt in enumerate(members):
        for j in range(n):
            levels.setdefault(cost(j, alt), []).append((2 + i, agent0 + j))
    flow = 0
    for best in sorted(levels):
        for u, v in levels[best]:
            net.add_edge(u, v, 1, 0)
        flow += net.send(0, sink, n - flow)
        if flow == n:
            break
    allowed = lambda j, a: cost(j, a) <= best
    targets = _solve_bounded(profile, members, lowers, uppers, cost, allowed)
    assert targets is not None
    return Assignment(targets)
