"""Independent brute-force oracles used to freeze expected values.

Nothing here touches the flow kernel or the greedy loops: matchings are
checked by enumerating every feasible assignment, committees by enumerating
every subset, and the Lambert W values by bisection.  Keep it that way.

The references at the end are the straightforward loops that faster
solvers replaced: the greedy loops (a sort or a scan of the unassigned agents
per candidate), the per-committee enumeration loop (a fresh matching,
validation and re-score for every committee) and the egalitarian binary
threshold search (one cold kernel solve per probe).  They do use the flow kernel;
the differential tests hold the solvers to them at sizes brute force cannot
reach.
"""

import math
import time
from itertools import combinations

import prefalloc.matching as matching
from prefalloc import (
    Assignment,
    CapacityRegime,
    EnumerationCapExceeded,
    InfeasibleMatchingError,
    Profile,
    ScoringFunction,
    SolveReport,
    SolverConfig,
    UnsupportedInstanceError,
    match_cc,
    match_egalitarian,
    match_monroe_l1,
    metric_extreme,
    metric_l1,
    score,
)


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
        score(psf, profile.position(i, targets[i]), profile.m)
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


def exact_enumeration_reference(instance, psf, objective, config=None):
    """The per-committee enumeration loop: every committee (by size, then
    lexicographically, within the budget) gets its own optimal matching
    under the instance's loads, which is validated and re-scored; the first
    strictly best one wins."""
    start = time.perf_counter()
    if objective not in ("l1_dec", "l1_inc", "min_dec", "max_inc"):
        raise ValueError(f"unknown objective {objective!r}")
    if not instance.has_unit_weights:
        raise UnsupportedInstanceError("solvers require unit agent weights")
    wants_dec = objective in ("l1_dec", "min_dec")
    if wants_dec != psf.is_decreasing:
        raise ValueError(
            f"objective {objective} needs a "
            f"{'decreasing' if wants_dec else 'increasing'} scoring function"
        )
    cap = (config or SolverConfig()).enumeration_cap
    prof = instance.profile
    if instance.system_tag in ("monroe", "cc"):
        k = instance.committee_size
        count = math.comb(prof.m, k)
        if count > cap:
            raise EnumerationCapExceeded(count, cap)
        regime = (
            CapacityRegime.monroe_balanced()
            if instance.system_tag == "monroe"
            else CapacityRegime.cc_unbounded()
        )
        committees = combinations(range(1, prof.m + 1), k)
    else:
        committees = [
            committee
            for size in range(1, prof.m + 1)
            for committee in combinations(range(1, prof.m + 1), size)
            if sum(instance.costs[a - 1] for a in committee) <= instance.budget
        ]
        if len(committees) > cap:
            raise EnumerationCapExceeded(None, cap)

    best_assignment = None
    best_value = 0
    for committee in committees:
        if instance.system_tag == "general":
            caps = tuple(instance.capacities[a - 1] for a in committee)
            if sum(caps) < prof.n:
                continue
            local_regime = CapacityRegime.explicit((0,) * len(committee), caps)
        else:
            local_regime = regime
        try:
            if objective in ("l1_dec", "l1_inc"):
                assignment = match_monroe_l1(prof, psf, committee, local_regime)
            else:
                mode = "max_min_sat" if objective == "min_dec" else "min_max_dissat"
                assignment = match_egalitarian(prof, psf, committee, local_regime, mode)
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


def match_egalitarian_reference(profile, psf, committee, regime, mode):
    """The egalitarian matching as a binary threshold search: one cold
    feasibility solve of the loosest threshold, about ``log2(m)`` more for
    the search, then the min-cost pass at the optimal threshold.  Kernel
    solves go through ``matching._solve_bounded`` so that tests can count
    them."""
    members = tuple(sorted(committee))
    lowers, uppers = regime.bounds_for(len(members), profile.n)
    if all(lo == 0 for lo in lowers) and all(hi >= profile.n for hi in uppers):
        return match_cc(profile, psf, members)
    cost = matching._edge_cost(profile, psf)
    levels = sorted({cost(0, a) for a in range(1, profile.m + 1)})

    def solve(ceiling, edge_cost=lambda j, a: 0):
        allowed = lambda j, a: cost(j, a) <= ceiling
        return matching._solve_bounded(
            profile, members, lowers, uppers, edge_cost, allowed
        )

    if solve(levels[-1]) is None:
        raise InfeasibleMatchingError("load bounds admit no complete assignment")
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if solve(levels[mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    return Assignment(solve(levels[lo], cost))
