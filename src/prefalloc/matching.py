"""Optimal agent-to-committee matchings for a fixed committee.

Given the committee, the remaining problem is a degree-constrained bipartite
b-matching on one integer cost table, column-major: ``table[a - 1][j]`` is
agent j's cost for alternative a (:func:`_cost_table`).
Both objectives run one entry, :func:`_match`, and one kernel function,
:func:`_solve_bounded`: integer successive shortest augmenting paths with
potentials on a flow network kept in arrays, where each Dijkstra search
pushes no agent that can relax nothing and stops once no heap entry can
relax anything.  The total objective is one solve.  The egalitarian
objectives probe cost levels as ``ceiling``s, from a proven lower bound on
the optimal threshold upwards; the least level whose solve completes is the
committee's egalitarian value, and that solve is its matching.  The entry
computes both proven floors (the CC floor and the load floor) and, under
either objective, refuses a committee whose value cannot be below the
caller's ``below`` before any kernel solve: the solvers' skip rules live
here alone.

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

from .core import Assignment, Profile, ScoringFunction, _balanced_loads, _integers


class InfeasibleMatchingError(ValueError):
    """No assignment satisfies the requested load bounds."""


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


def _bounds(
    n: int, k: int, lowers: Sequence[int] | None, uppers: Sequence[int] | None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (lowers, uppers) of a committee of size ``k``: balanced Monroe
    loads (``floor(n/k)`` to ``ceil(n/k)`` each) when both are None, else
    the given bounds, checked."""
    if lowers is None and uppers is None:
        least, most = _balanced_loads(n, k)
        return (least,) * k, (most,) * k
    if lowers is None or uppers is None:
        raise ValueError("explicit bounds need lower and upper bounds")
    lowers, uppers = tuple(lowers), tuple(uppers)
    if len(lowers) != len(uppers):
        raise ValueError("lower and upper bound lists differ in length")
    if not _integers((*lowers, *uppers)):
        raise ValueError("bounds must be integers")
    if any(lo < 0 for lo in lowers):
        raise ValueError("lower bounds must be nonnegative")
    if any(hi < lo for lo, hi in zip(lowers, uppers)):
        raise ValueError("upper bounds must dominate lower bounds")
    if len(lowers) != k:
        raise ValueError(f"explicit bounds cover {len(lowers)} members, committee has {k}")
    return lowers, uppers


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
    Successive shortest paths with Johnson potentials: every path ends on a
    unit agent-sink edge, so each carries one unit, and ``n`` of them
    complete the matching.  Raises :class:`InfeasibleMatchingError` when the
    load totals admit no complete assignment.

    The residual network is plain arrays: ``head[j]``, the one node agent j
    has an edge to (its member, or the sink while unmatched);
    ``rows[i][j]``, the cost of member i's edge to agent j, infinite above
    the ceiling and while the edge carries j;
    ``matched``, the sink's costs back to the agents; and the flows on the
    lower, slack and pool edges.  A search keeps ``label = dist + potential``
    per node and pops ``(dist, node)`` keys, packed as ``dist * size +
    node``; the first strict improvement of a label wins, so ties go to the
    least key.  Nodes relax edges in the order of an edge-list network: the
    source, lower edges by member, then the pool; the pool, slack edges by
    member; a member, its reverse slack edge, then agents by index; an
    agent, its one edge; the sink, matched agents by index.  No node has two
    edges to one node, so this order moves no tie, and no edge back to the
    source can improve its distance of 0.

    Two savings leave every label, path and potential as a search that pops
    every entry would leave them:

    - Once the node an agent's edge leads to has settled, popping the agent
      can improve nothing, since reduced costs are at least 0: the agent is
      labelled but not pushed.  Keys pop in one total order, so dropping
      entries whose pops do nothing moves no other pop.
    - ``live`` counts the heap entries whose pop may relax something: all
      but those of agents whose node has settled (``waiting`` counts them
      per node).  At 0 the search stops: only members and the sink relax
      agents, so every label is final.
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
    heappop, heappush = heapq.heappop, heapq.heappush
    agent0 = 2 + k
    sink = agent0 + n
    size = sink + 1
    inf = float("inf")
    agents = range(n)
    columns = [table[alt - 1] for alt in committee]
    rows = [[c if ceiling is None or c <= ceiling else inf for c in col] for col in columns]
    slacks = [min(hi, n) - lo for lo, hi in zip(lowers, uppers)]
    head = [sink] * n
    matched = [inf] * n
    lower_flow, slack_flow, pool_flow = [0] * k, [0] * k, 0
    potential = [0] * size
    for _ in range(n):
        label = [inf] * size
        label[0] = 0
        prev = [0] * size
        settled = [False] * size
        waiting = [0] * size
        heap = [0]
        live = 1
        while live:
            d, u = divmod(heappop(heap), size)
            base = d + potential[u]
            if agent0 <= u < sink:
                j = u - agent0
                v = head[j]
                if settled[v]:
                    continue  # left the live count when v settled
                live -= 1
                waiting[v] -= 1
                if base > label[u]:
                    continue
                if v != sink:
                    base -= columns[v - 2][j]
                if base < label[v]:
                    label[v] = base
                    prev[v] = u
                    heappush(heap, (base - potential[v]) * size + v)
                    live += 1
                continue
            live -= 1
            if base > label[u]:
                continue
            settled[u] = True
            live -= waiting[u]
            arcs, row, ends = [], (), ()
            if u == 0:
                arcs = [2 + i for i in range(k) if lower_flow[i] < lowers[i]]
                if pool_flow < n - total_lo:
                    arcs.append(1)
            elif u == 1:
                arcs = [2 + i for i in range(k) if slack_flow[i] < slacks[i]]
            elif u == sink:
                row, ends = matched, agents
            else:
                row, ends = rows[u - 2], agents
                if slack_flow[u - 2]:
                    arcs = [1]
            for v in arcs:  # zero-cost edges out of the source, the pool or a member
                if base < label[v]:
                    label[v] = base
                    prev[v] = u
                    heappush(heap, (base - potential[v]) * size + v)
                    live += 1
            for j in [j for j in ends if base + row[j] < label[agent0 + j]]:
                v = agent0 + j
                label[v] = at = base + row[j]
                prev[v] = u
                w = head[j]
                if not settled[w]:
                    heappush(heap, (at - potential[v]) * size + v)
                    live += 1
                    waiting[w] += 1
        if label[sink] == inf:
            return None
        potential = [at if at < inf else p for p, at in zip(potential, label)]  # += dist
        v = sink
        while v:
            u = prev[v]
            if v == sink:
                matched[u - agent0] = 0
            elif agent0 <= v:  # member u now carries agent v
                head[v - agent0] = u
                rows[u - 2][v - agent0] = inf
            elif agent0 <= u:  # agent u leaves member v, its edge within the ceiling
                rows[v - 2][u - agent0] = columns[v - 2][u - agent0]
            elif v == 1:
                if u == 0:
                    pool_flow += 1
                else:
                    slack_flow[u - 2] -= 1
            elif u == 0:
                lower_flow[v - 2] += 1
            else:
                slack_flow[v - 2] += 1
            v = u
    return tuple(committee[v - 2] for v in head)


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
    lowers: Sequence[int] | None = None,
    uppers: Sequence[int] | None = None,
) -> Assignment:
    """Optimal total-objective matching under the members' load bounds.

    ``lowers`` and ``uppers`` bound the agents each member carries, aligned
    with the sorted committee; with neither given, each member carries
    ``floor(n/K)`` to ``ceil(n/K)`` agents (Monroe).  Bounds of 0 and ``n``
    restrict nothing, and the matching is then :func:`match_cc`'s.
    Maximizes the total score for a decreasing (satisfaction) function and
    minimizes it for an increasing (dissatisfaction) one: both minimize the
    total :func:`_cost_table` cost, and the optimum is exact.
    """
    members = _checked_committee(profile, committee)
    bounds = _bounds(profile.n, len(members), lowers, uppers)
    found = _match(profile, _cost_table(profile, psf), members, *bounds, True)
    assert found is not None  # no ``below``: the optimum is returned
    return found[1]


def match_egalitarian(
    profile: Profile,
    psf: ScoringFunction,
    committee: Sequence[int],
    lowers: Sequence[int] | None = None,
    uppers: Sequence[int] | None = None,
) -> Assignment:
    """Optimal extreme-agent matching under the members' load bounds, taken
    as :func:`match_monroe_l1` takes them.

    A decreasing (satisfaction) function maximizes the least satisfied
    agent's score; an increasing (dissatisfaction) one minimizes the most
    dissatisfied agent's score.  The optimal threshold is the best of the
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
    members = _checked_committee(profile, committee)
    bounds = _bounds(profile.n, len(members), lowers, uppers)
    found = _match(profile, _cost_table(profile, psf), members, *bounds, False)
    assert found is not None  # no ``below``: the loosest level completes
    return found[1]
