"""Optimal agent-to-committee matchings for a fixed committee.

Given the committee, the remaining problem is a degree-constrained bipartite
b-matching on one integer cost table, column-major: ``table[a - 1][j]`` is
agent j's cost for alternative a (:func:`_cost_table`).
Both objectives run one entry, :func:`_match`, one threshold search in it
and one kernel function, :func:`_solve_bounded`: integer successive shortest
augmenting paths with potentials, whose state is the matching.  The search
climbs the cost levels from a proven lower bound on the optimal threshold
and stops at the first level whose columns capped there (every cost above it
infinite) admit a matching.  The total objective's one level caps nothing.
The entry computes both proven floors (the CC floor and the load floor) and,
under either objective, refuses a committee whose value cannot be below the
caller's ``below`` before any kernel solve: the solvers' skip rules live
here alone.

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
    columns: Sequence[Sequence[float]], lowers: tuple[int, ...], uppers: tuple[int, ...]
) -> list[int] | None:
    """Min-cost full b-matching, as each agent's slot in ``columns``
    (``columns[i][j]``: agent j's cost at member i, infinite for a missing
    edge), or None if none, which only capped columns give; :func:`_match`'s
    search, the one caller, refuses infeasible load totals first.

    Node 0 is the source and node 1 the slack pool; the ``k`` members follow
    from node 2, the ``n`` agents from node ``2 + k``, and the sink is last.
    The source feeds each member its ``lower`` units and the pool ``n -
    sum(lowers)``, which passes at most ``upper - lower`` to each member, so
    a flow of value ``n`` meets every lower bound.  Successive shortest
    paths with Johnson potentials: every path ends on a unit agent-sink
    edge, so each carries one unit, and ``n`` of them complete the matching.

    The state is the matching and one potential per node: ``head[j]``, the
    one node agent j has an edge to (its member, or the sink while
    unmatched); ``rows[i][j]``, the cost of member i's edge to agent j,
    infinite while the edge is missing or carries j; and ``load[i]``, the
    agents member i carries.  The sink's edges go back, at cost 0, to the
    agents with ``head[j] < sink``, and loads give the rest: a member below
    its lower bound holds label 0 from the source's first pop (key 0), and
    no member label is below 0, since one reached through an agent carries
    flow back to the source at cost 0 and an optimal partial flow has no
    negative cycle; so it takes no slack.  Lower flow never falls, so the
    lower edge carries ``min(load, lower)``, the slack edge ``max(0, load -
    lower)``, and the source's edge to the pool has room while
    ``sum(max(load, lower)) < n``; a pool edge into a member with equal
    bounds, below both, never wins either.  No load reaches ``n`` in a
    search, so ``uppers`` alone caps the pool's edges.  A path is applied as
    agent moves: each agent on it moves to the member before it (the last
    one from the sink), its old edge coming back and the two loads moving
    with it; the loads imply its source, pool and slack steps.  A search
    keeps ``label = dist + potential`` per node and pops ``(dist, node)``
    keys, packed as ``dist * size + node``; the first strict improvement of
    a label wins, so ties go to the least key.  Nodes relax edges in the
    order of an edge-list network: the source, lower edges by member, then
    the pool; the pool, slack edges by member; a member, its reverse slack
    edge, then agents by index; an agent, its one edge; the sink, matched
    agents by index.  No node has two edges to one node, so this order moves
    no tie, and no edge back to the source can improve its distance of 0.

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
    n, k = len(columns[0]), len(columns)
    heappop, heappush = heapq.heappop, heapq.heappush
    agent0 = 2 + k
    sink = agent0 + n
    size = sink + 1
    inf = float("inf")
    agents = range(n)
    rows = [list(col) for col in columns]
    head, load = [sink] * n, [0] * k
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
                arcs = [2 + i for i in range(k) if load[i] < lowers[i]]
                if sum(map(max, load, lowers)) < n:  # the pool's room
                    arcs.append(1)
            elif u == 1:
                arcs = [2 + i for i in range(k) if load[i] < uppers[i]]
            elif u == sink:
                row, ends = [0 if v < sink else inf for v in head], agents
            else:
                row, ends = rows[u - 2], agents
                if load[u - 2] > lowers[u - 2]:
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
        v = prev[sink]
        while v:  # agent j moves from head[j] to member u; its old edge is back
            j, u, w = v - agent0, prev[v], head[v - agent0]
            if w < sink:
                rows[w - 2][j] = columns[w - 2][j]
                load[w - 2] -= 1
            head[j], rows[u - 2][j] = u, inf
            load[u - 2] += 1
            v = prev[u]
            while 0 < v < agent0:  # the pool and the member handing it a unit
                v = prev[v]
    return [v - 2 for v in head]


def _nearest(members: tuple[int, ...], columns: Sequence[Sequence[int]]) -> Assignment:
    """Each agent at the member whose ``columns`` entry is least, the first on ties."""
    return Assignment([members[row.index(min(row))] for row in zip(*columns)])


def _match(
    table: list[tuple[int, ...]],
    members: tuple[int, ...],
    lowers: tuple[int, ...],
    uppers: tuple[int, ...],
    total: bool,
    below: float = float("inf"),
) -> tuple[int, Assignment] | None:
    """The optimal value of the sorted ``members`` under the bounds and an
    assignment that reaches it, or None if the value is not below ``below``
    (infinite by default: no limit).

    The value is the sum (``total``) or the largest of the agents' edge
    costs.  Two proven floors bound it from below, folded the same way:
    each agent's least cost over the members (the CC floor), and for each
    member with a lower bound ``lo`` the costs of the ``lo`` agents it must
    carry, at least its ``lo`` cheapest (the load floor; their sum, or the
    ``lo``-th cheapest).  A committee refused by the CC floor sorts no
    column, and one refused by the larger floor runs no kernel solve.
    Bounds of 0 and ``n`` restrict nothing: the CC floor is the value and
    each agent goes to its cheapest member (:func:`_nearest`).  Other load
    totals that admit no complete assignment raise
    :class:`InfeasibleMatchingError` before the load floor and any solve.

    One threshold search serves both objectives, one kernel solve on the
    columns capped at each level it probes, and the first level that admits
    a matching gives the result.  The total objective's one level caps
    nothing, so its solve completes; the egalitarian search climbs the
    costs from the floor up to ``below``, one level at a time.
    """
    n = len(table[0])
    fold = sum if total else max
    columns = [table[a - 1] for a in members]
    floor = fold(map(min, zip(*columns)))
    if floor >= below:
        return None
    if all(lo == 0 for lo in lowers) and all(hi >= n for hi in uppers):
        return floor, _nearest(members, columns)
    most, least = sum(min(hi, n) for hi in uppers), sum(lowers)
    if most < n:
        raise InfeasibleMatchingError(
            f"member upper bounds admit only {most} agents, instance has {n}"
        )
    if least > n:
        raise InfeasibleMatchingError(
            f"member lower bounds require {least} agents, instance has {n}"
        )
    loads = [fold(sorted(column)[:low]) for low, column in zip(lowers, columns) if low]
    if loads:
        floor = max(floor, fold(loads))
    if floor >= below:
        return None
    inf = float("inf")
    levels = [inf]  # the total objective's one level caps nothing
    if not total:
        levels = sorted({c for column in columns for c in column if floor <= c < below})
    for level in levels:
        capped = columns if total else [
            [c if c <= level else inf for c in column] for column in columns
        ]
        slots = _solve_bounded(capped, lowers, uppers)
        if slots is not None:
            break
    else:
        assert not total  # uncapped, totals that pass admit a matching
        return None
    value = fold(columns[s][j] for j, s in enumerate(slots))
    if value >= below:
        return None
    return value, Assignment([members[s] for s in slots])


def match_cc(profile: Profile, committee: Sequence[int]) -> Assignment:
    """Assign every agent to its best-ranked committee member.

    With unbounded member capacities the agents are independent, so this is
    optimal for the total objective and for both egalitarian objectives.
    """
    members = _checked_committee(profile, committee)
    return _nearest(members, [[row[a - 1] for row in profile.positions] for a in members])


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
    total :func:`_cost_table` cost, and the optimum is exact.  Refused load
    totals raise :class:`InfeasibleMatchingError` before any kernel solve.
    """
    members = _checked_committee(profile, committee)
    bounds = _bounds(profile.n, len(members), lowers, uppers)
    found = _match(_cost_table(profile, psf), members, *bounds, True)
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
    usually the threshold, so usually one solve, and otherwise climbs one
    level at a time.  Load totals that admit no complete assignment raise
    :class:`InfeasibleMatchingError` before any kernel solve.
    """
    members = _checked_committee(profile, committee)
    bounds = _bounds(profile.n, len(members), lowers, uppers)
    found = _match(_cost_table(profile, psf), members, *bounds, False)
    assert found is not None  # no ``below``: the loosest level completes
    return found[1]
