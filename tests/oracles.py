"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the flow kernel or the greedy loops: matchings are
checked by enumerating every feasible assignment, committees by enumerating
every subset, and the Lambert W values by bisection.  Keep it that way.

The references at the end are the straightforward loops that faster
solvers replaced: the greedy loops (a sort or a scan of the unassigned agents
per candidate), the per-committee enumeration loop (a fresh matching,
validation and re-score for every committee), the egalitarian binary
threshold search (one cold kernel solve per probe) and the combined solver's
sampling loop (a fresh draw, public ``match_monroe_l1`` call and instance per
run), and the flow kernel itself as a network of edge records
(``solve_bounded_reference``).  Most of them do use a flow kernel; the
differential tests hold the solvers to them at sizes brute force cannot
reach.  The file ends with the samplers
that block draws and a sparse swap map replaced: ``shuffled`` and
``sample_distinct_reference`` call ``randrange`` once per position of a full
list.
"""

import heapq
import math
import time
from itertools import combinations

import prefalloc.matching as matching
from prefalloc import (
    Assignment,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    InfeasibleMatchingError,
    Profile,
    ScoringFunction,
    SolveReport,
    SolverConfig,
    exact_enumeration,
    greedy_monroe,
    harmonic,
    make_monroe,
    match_cc,
    match_egalitarian,
    match_monroe_l1,
    metric_extreme,
    metric_l1,
    sampling_run_count,
    score,
)
from prefalloc.rng import SplitMix64, derive_seed, sample_distinct


def feasible_assignments(n, committee, lowers, uppers):
    """Yield every target tuple assigning all n agents within the load bounds."""
    k = len(committee)
    loads = [0] * k
    targets = [0] * n

    def rec(j):
        if j == n:
            if all(lowers[i] <= loads[i] for i in range(k)):
                yield tuple(targets)
            return
        still_needed = sum(max(0, lowers[i] - loads[i]) for i in range(k))
        if still_needed > n - j:
            return
        for i in range(k):
            if loads[i] < uppers[i]:
                loads[i] += 1
                targets[j] = committee[i]
                yield from rec(j + 1)
                loads[i] -= 1

    yield from rec(0)


def agent_scores(profile: Profile, psf: ScoringFunction, targets):
    return [
        score(psf, profile.positions[i][targets[i] - 1], profile.m)
        for i in range(profile.n)
    ]


def best_matching_value(profile, psf, committee, lowers, uppers, objective):
    """Optimal objective value over every feasible assignment, by enumeration."""
    values = []
    for targets in feasible_assignments(profile.n, committee, lowers, uppers):
        scores = agent_scores(profile, psf, targets)
        if objective == "l1_dec":
            values.append(sum(scores))
        elif objective == "l1_inc":
            values.append(-sum(scores))
        elif objective == "min_dec":
            values.append(min(scores))
        elif objective == "max_inc":
            values.append(-max(scores))
        else:
            raise ValueError(objective)
    if not values:
        return None
    best = max(values)
    return -best if objective in ("l1_inc", "max_inc") else best


def balanced_bounds(n, k):
    return (n // k,) * k, (-(-n // k),) * k


def best_committee_value(profile, psf, k, system, objective="l1_dec"):
    """Optimal value over all size-k committees, matching each by enumeration."""
    n, m = profile.n, profile.m
    if system == "monroe":
        lowers, uppers = balanced_bounds(n, k)
    else:
        lowers, uppers = (0,) * k, (n,) * k
    best = None
    for committee in combinations(range(1, m + 1), k):
        value = best_matching_value(profile, psf, committee, lowers, uppers, objective)
        if value is None:
            continue
        if best is None:
            best = value
        elif objective in ("l1_dec", "min_dec"):
            best = max(best, value)
        else:
            best = min(best, value)
    return best


def lambert_w_bisect(x, tol=1e-14):
    """Solve w * e^w = x on [0, inf) by plain bisection."""
    import math

    if x < 0:
        raise ValueError("negative argument")
    lo, hi = 0.0, 1.0
    while hi * math.exp(hi) < x:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0


def greedy_monroe_reference(profile, k, psf):
    """Targets of the greedy Monroe loop (k >= 3), one sort per candidate.

    Each step takes ``ceil(remaining / steps left)`` agents; every unused
    alternative is scored by the best such batch of unassigned agents, sorted
    by ``(position, agent index)``, and the first strictly best one wins.
    """
    n, m = profile.n, profile.m
    positions = profile.positions
    targets = [0] * n
    unassigned = list(range(n))
    used = set()
    remaining = n
    for step in range(k):
        size = -(-remaining // (k - step))
        remaining -= size
        best_alt = -1
        best_score = -1
        best_batch = []
        for alt in range(1, m + 1):
            if alt in used:
                continue
            ranked = sorted(unassigned, key=lambda j: (positions[j][alt - 1], j))
            batch = ranked[:size]
            total = sum(score(psf, positions[j][alt - 1], m) for j in batch)
            if total > best_score:
                best_alt, best_score, best_batch = alt, total, batch
        used.add(best_alt)
        for j in best_batch:
            targets[j] = best_alt
        unassigned = [j for j in unassigned if targets[j] == 0]
    return tuple(targets)


def greedy_cover_reference(profile, k, x):
    """Targets of the top-x cover loop, one scan of the unassigned agents per
    candidate; leftover agents go to their best picked alternative."""
    n, m = profile.n, profile.m
    positions = profile.positions
    targets = [0] * n
    unassigned = list(range(n))
    picked = []
    for _ in range(k):
        best_alt = -1
        best_count = -1
        for alt in range(1, m + 1):
            if alt in picked:
                continue
            count = sum(1 for j in unassigned if positions[j][alt - 1] <= x)
            if count > best_count:
                best_alt, best_count = alt, count
        picked.append(best_alt)
        still = []
        for j in unassigned:
            if positions[j][best_alt - 1] <= x:
                targets[j] = best_alt
            else:
                still.append(j)
        unassigned = still
    for j in unassigned:
        targets[j] = min(picked, key=lambda a: positions[j][a - 1])
    return tuple(targets)


def exact_enumeration_reference(
    instance, psf, objective, enumeration_cap=DEFAULT_ENUMERATION_CAP
):
    """The per-committee enumeration loop: every committee (by size, then
    lexicographically, within the budget) gets its own optimal matching
    under the instance's loads, which is validated and re-scored; the first
    strictly best one wins."""
    start = time.perf_counter()
    if objective not in ("l1_dec", "l1_inc", "min_dec", "max_inc"):
        raise ValueError(f"unknown objective {objective!r}")
    wants_dec = objective in ("l1_dec", "min_dec")
    if wants_dec != psf.is_decreasing:
        raise ValueError(
            f"objective {objective} needs a "
            f"{'decreasing' if wants_dec else 'increasing'} scoring function"
        )
    prof = instance.profile
    if instance.system_tag in ("monroe", "cc"):
        k = instance.committee_size
        count = math.comb(prof.m, k)
        if count > enumeration_cap:
            raise EnumerationCapExceeded(count, enumeration_cap)
        if instance.system_tag == "monroe":
            bounds = balanced_bounds(prof.n, k)
        else:
            bounds = (0,) * k, (prof.n,) * k
        committees = combinations(range(1, prof.m + 1), k)
    else:
        committees = [
            committee
            for size in range(1, prof.m + 1)
            for committee in combinations(range(1, prof.m + 1), size)
            if sum(instance.costs[a - 1] for a in committee) <= instance.budget
        ]
        if len(committees) > enumeration_cap:
            raise EnumerationCapExceeded(None, enumeration_cap)

    best_assignment = None
    best_value = 0
    for committee in committees:
        if instance.system_tag == "general":
            caps = tuple(instance.capacities[a - 1] for a in committee)
            if sum(caps) < prof.n:
                continue
            local_bounds = (0,) * len(committee), caps
        else:
            local_bounds = bounds
        try:
            if objective in ("l1_dec", "l1_inc"):
                assignment = match_monroe_l1(prof, psf, committee, *local_bounds)
            else:
                assignment = match_egalitarian(prof, psf, committee, *local_bounds)
        except InfeasibleMatchingError:
            continue
        if objective in ("l1_dec", "l1_inc"):
            value = metric_l1(instance, psf, assignment)
        else:
            mode = "min" if objective == "min_dec" else "max"
            value = metric_extreme(instance, psf, assignment, mode)
        if (
            best_assignment is None
            or (wants_dec and value > best_value)
            or (not wants_dec and value < best_value)
        ):
            best_assignment, best_value = assignment, value
    if best_assignment is None:
        raise InfeasibleMatchingError(
            "no budget-feasible committee can host all agents"
        )
    return SolveReport(
        assignment=best_assignment,
        objective=objective,
        value=best_value,
        algorithm="exact_enumeration",
        elapsed=time.perf_counter() - start,
    )


def solve_bounded_reference(
    table: list[tuple[int, ...]],
    committee: tuple[int, ...],
    lowers: tuple[int, ...],
    uppers: tuple[int, ...],
    ceiling: int | None,
) -> tuple[int, ...] | None:
    """The matching kernel as an edge-list network: min-cost full b-matching
    on the edges within ``ceiling``, or None if none.

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


def match_egalitarian_reference(profile, psf, committee, lowers=None, uppers=None):
    """The egalitarian matching as a binary threshold search: one cold
    feasibility solve of the loosest threshold, about ``log2(m)`` more for
    the search, then the min-cost pass at the optimal threshold.  Every
    solve runs :func:`solve_bounded_reference`, so the kernel under test
    runs only on the other side of a differential.  Bounds are given as
    ``match_egalitarian`` takes them, balanced when both are None."""
    members = tuple(sorted(committee))
    if lowers is None:
        lowers, uppers = balanced_bounds(profile.n, len(members))
    if all(lo == 0 for lo in lowers) and all(hi >= profile.n for hi in uppers):
        return match_cc(profile, members)
    table = matching._cost_table(profile, psf)
    levels = sorted({c for column in table for c in column})

    def feasible(ceiling):
        # Zero-cost edges at or below the ceiling; the others cost 1 and are
        # left out by a ceiling of 0.
        flags = [[0 if c <= ceiling else 1 for c in column] for column in table]
        return solve_bounded_reference(flags, members, lowers, uppers, 0) is not None

    if not feasible(levels[-1]):
        raise InfeasibleMatchingError("load bounds admit no complete assignment")
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return Assignment(solve_bounded_reference(table, members, lowers, uppers, levels[lo]))


def combined_monroe_reference(profile, k, config=None):
    """The combined solver with its sampling loop as it first ran: every
    sampling run draws a committee, matches it through the public
    ``match_monroe_l1`` and scores it on a fresh instance, and the best of
    the greedy report and the sampling runs wins, the first one on ties."""
    start = time.perf_counter()
    config = config or SolverConfig()
    psf = ScoringFunction.borda_dec()
    if harmonic(k) / k >= config.epsilon / 2 or k <= 8:
        branch = "exact:small-k"
    elif profile.m <= 1 + 2 / config.epsilon:
        branch = "exact:small-m"
    else:
        branch = None
    if branch is not None and math.comb(profile.m, k) <= config.enumeration_cap:
        inner = exact_enumeration(
            make_monroe(profile, k), psf, "l1_dec", config.enumeration_cap
        )
        return SolveReport(
            assignment=inner.assignment,
            objective=inner.objective,
            value=inner.value,
            algorithm=f"combined_monroe[{branch}]",
            seed=config.seed,
            elapsed=time.perf_counter() - start,
        )
    best = greedy_monroe(profile, k) if k > 2 else None
    runs = sampling_run_count(k, config.epsilon, config.lambda_)
    if branch is not None:
        runs = min(runs, config.enumeration_cap)
    for index in range(runs):
        gen = SplitMix64(derive_seed(config.seed, index))
        committee = sorted(a + 1 for a in sample_distinct(profile.m, k, gen))
        assignment = match_monroe_l1(profile, psf, committee)
        value = metric_l1(make_monroe(profile, k), psf, assignment)
        if best is None or value > best.value:
            best = SolveReport(assignment, "l1_dec", value, "sample_once_monroe")
    name = f"combined_monroe[{'greedy+sample' if k > 2 else 'sample'}:{runs}]"
    if branch is not None:
        name += "[no-guarantee]"
    return SolveReport(
        assignment=best.assignment,
        objective="l1_dec",
        value=best.value,
        algorithm=name,
        seed=config.seed,
        elapsed=time.perf_counter() - start,
    )


def shuffled(items, rng):
    """Full Fisher-Yates shuffle by ``rng.randrange``; returns a new list.
    One such shuffle of ``1..m`` per agent is an impartial-culture profile."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def sample_distinct_reference(m, k, rng):
    """Uniform k-subset of {0, ..., m-1} by partial Fisher-Yates over the
    whole pool, O(m) per call."""
    pool = list(range(m))
    for i in range(k):
        j = i + rng.randrange(m - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]
