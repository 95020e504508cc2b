"""Committee-selection algorithms, the exact enumeration oracle, and the
numeric utilities their quality bounds need.

All positive guarantees hold for Borda satisfaction scores, so the
approximation solvers score with ``borda_dec`` and take no scoring function.
They take a bare :class:`Profile` and build the Monroe or CC restriction
themselves, which refuses an :class:`Instance` and checks the committee
size; :func:`exact_enumeration` takes an :class:`Instance`.  Ties are always broken toward the lowest
alternative index and the lowest agent index.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, chain

from .core import (
    Assignment,
    Instance,
    Profile,
    ScoringFunction,
    SolveReport,
    _balanced_loads,
    _integers,
    metric_extreme,
    metric_l1,
    metric_min_delta,
)
from .instances import make_cc, make_monroe
from .matching import InfeasibleMatchingError, _cost_table, _match
from .rng import SplitMix64, derive_seed, sample_distinct

DEFAULT_ENUMERATION_CAP = 2_000_000
# The approximation solvers' floors hold for Borda scores only.
_BORDA = ScoringFunction.borda_dec()

OBJECTIVES = ("l1_dec", "l1_inc", "min_dec", "max_inc")


class EnumerationCapExceeded(RuntimeError):
    """Exact enumeration would need more committees than the configured cap.

    ``required`` is None when the count stopped once it passed the cap.
    """

    def __init__(self, required: int | None, cap: int):
        self.required = required
        self.cap = cap
        needs = f"more than {cap}" if required is None else required
        super().__init__(f"exact enumeration needs {needs} committees, cap is {cap}")


def _check_positive(k: int, what: str = "committee size") -> None:
    """Refuse ``k`` unless it is an ``int`` (not a ``bool``) of at least 1."""
    if not _integers((k,)):
        raise ValueError(f"{what} must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"{what} must be positive")


def harmonic(k: int) -> Fraction:
    """Exact k-th harmonic number 1 + 1/2 + ... + 1/k."""
    _check_positive(k, "harmonic number index")
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W: solves w * e^w = x for every finite x >= 0
    up to the largest float.

    Newton iteration from ln(1 + x) drives ``|w e^w - x|`` below ``1e-13 *
    max(1, x)``; where its slope ``e^w (1 + w)`` overflows (x above about
    2.55e305), steps ``w = ln x - ln w`` on the log form drive ``|w + ln w -
    ln x|`` below ``1e-12``.  Raises ``ArithmeticError`` after 64 steps.
    """
    if x < 0:
        raise ValueError("lambert_w is only defined for nonnegative arguments")
    if not x <= sys.float_info.max:  # inf, nan, or an int no float holds
        raise ValueError(f"lambert_w needs a finite argument, got {x!r}")
    if x == 0:
        return 0.0
    w = math.log1p(x)
    for _ in range(64):
        ew = math.exp(w)
        residual, slope, tolerance = w * ew - x, ew * (1.0 + w), 1e-13 * max(1.0, x)
        if slope == math.inf:  # the log form, which contracts by 1/w at each step
            residual, slope, tolerance = w + math.log(w) - math.log(x), 1.0, 1e-12
        if abs(residual) <= tolerance:
            return w
        w -= residual / slope
    raise ArithmeticError(f"lambert_w({x!r}) did not converge in 64 steps")


def sampling_run_count(k: int, epsilon: float, lambda_: float) -> int:
    """Number of sampling repetitions that make the combined solver reach its
    ratio with probability ``lambda_``: ``ceil(-512 ln(1 - lambda) / (K eps^2))``,
    positive for every valid input: where the float quotient is 0 or not
    finite, it is taken exactly in fractions, from ``log1p(-lambda)``.
    """
    _check_positive(k)
    if not 0 < epsilon < 1 or not 0 < lambda_ < 1:
        raise ValueError("epsilon and lambda must lie strictly inside (0, 1)")
    runs = -512.0 * math.log(1.0 - lambda_) / (k * epsilon * epsilon or math.nan)
    if not 0 < runs < math.inf:  # NaN where eps^2 underflowed to 0
        runs = Fraction(-512.0 * math.log1p(-lambda_)) / (k * Fraction(epsilon) ** 2)
    return math.ceil(runs)


def greedy_monroe_bound(n: int, m: int, k: int) -> Fraction:
    """Proven floor of the greedy balanced-committee solver's total score for
    k >= 3: ``(m-1) n (1 - (k-1)/(2(m-1)) - H_k/k)``."""
    if not (_integers((k,)) and 3 <= k <= m):
        raise ValueError(f"greedy_monroe_bound needs an integer k in 3..{m}, got {k!r}")
    return (
        (m - 1)
        * n
        * (1 - Fraction(k - 1, 2 * (m - 1)) - harmonic(k) / k)
    )


def greedy_cc_bound(n: int, m: int, k: int) -> float:
    """Proven floor of the greedy cover solver's total score:
    ``(1 - 2 w(k)/k) (m-1) n``."""
    _check_positive(k)
    return (1.0 - 2.0 * lambert_w(k) / k) * (m - 1) * n


def _loads(
    instance: Instance, members: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The members' load bounds on the instance: at least ``floor(n/K)``
    agents each on a Monroe instance and none otherwise, at most their
    capacities."""
    k = len(members)
    least = _balanced_loads(instance.profile.n, k)[0] if instance.system_tag == "monroe" else 0
    return (least,) * k, tuple(instance.capacities[a - 1] for a in members)


def _batch_sizes(n: int, k: int) -> list[int]:
    """Per-step assignment counts: step i takes ceil(remaining / (k - i)),
    so the ``n mod k`` steps of ``ceil(n/k)`` come first."""
    least, most = _balanced_loads(n, k)
    return [most] * (n - least * k) + [least] * (k - n + least * k)


def _greedy_picks(
    prof: Profile, sizes: Iterable[int], weights: Sequence[int]
) -> tuple[list[int], list[int]]:
    """The greedy pick loop: one pick per batch size in ``sizes``.

    A pick scores every unpicked alternative by the weights of the
    ``size`` not-yet-assigned agents that rank it best, an agent at
    position p weighing ``weights[p - 1]`` (positions past ``len(weights)``
    are not counted), commits the first strictly best alternative and
    assigns it that batch, in ``(position, agent index)`` order.  Returns
    ``(targets, picked)``, with target 0 for agents left unassigned.

    Cost: one O(n len(weights)) rank-bucket index (``buckets[a - 1][p - 1]``
    lists the agents ranking ``a`` at a counted position ``p``; ``counts``
    keeps how many are unassigned), then O(len(weights)) per candidate and
    pick; only the winning batch is read out of its buckets.
    """
    n, m, orders, depth = prof.n, prof.m, prof.orders, len(weights)
    buckets: list = [[[] for _ in range(depth)] for _ in range(m)]
    for j, order in enumerate(orders):
        for p, alt in enumerate(order[:depth]):
            buckets[alt - 1][p].append(j)
    counts = [[len(bucket) for bucket in row] for row in buckets]
    targets = [0] * n
    picked: list = []
    for size in sizes:
        best_alt = -1
        best_score = -1
        for alt in range(1, m + 1):
            if alt in picked:
                continue
            need, total = size, 0
            for count, weight in zip(counts[alt - 1], weights):
                if count >= need:
                    total += need * weight
                    break
                total += count * weight
                need -= count
            if total > best_score:
                best_alt, best_score = alt, total
        picked.append(best_alt)
        batch: list = []
        for bucket in buckets[best_alt - 1]:
            batch.extend(j for j in bucket if targets[j] == 0)
            if len(batch) >= size:
                break
        del batch[size:]
        for j in batch:
            targets[j] = best_alt
            for p, a in enumerate(orders[j][:depth]):
                counts[a - 1][p] -= 1
    return targets, picked


def _borda_report(
    instance: Instance,
    assignment: Assignment,
    algorithm: str,
    start: float,
    seed: int | None = None,
) -> SolveReport:
    """``algorithm``'s ``l1_dec`` report of ``assignment``, timed from
    ``start``: its Borda total on ``instance``, which :func:`metric_l1`
    validates first.  Every Borda solver returns through it."""
    value = metric_l1(instance, _BORDA, assignment)
    return SolveReport(assignment, "l1_dec", value, algorithm, seed, time.perf_counter() - start)


def _exact_monroe(
    instance: Instance, algorithm: str, seed: int | None, cap: int, start: float
) -> SolveReport:
    """The exact ``l1_dec`` optimum on the Monroe ``instance`` as
    ``algorithm``'s report, timed from ``start``: the exact branch of the
    Monroe solvers."""
    inner = exact_enumeration(instance, _BORDA, "l1_dec", cap)
    return _borda_report(instance, inner.assignment, algorithm, start, seed)


def greedy_monroe(profile: Profile, k: int) -> SolveReport:
    """Greedy balanced-committee solver for the Monroe restriction.

    For k <= 2 the exact optimum is computed by enumeration, which raises
    :class:`EnumerationCapExceeded` once ``C(m, k)`` exceeds
    ``DEFAULT_ENUMERATION_CAP``.  Otherwise the committee is built in k
    steps: each step scores every unused alternative by the total
    satisfaction of the not-yet-assigned agents that rank it best (one
    balanced batch worth of them, ties toward the lower agent index) and
    commits the first strictly best one.  For k >= 3 the total
    score is at least ``greedy_monroe_bound(n, m, k)``.

    Cost: one O(n m) rank-bucket index, then O(m) per candidate and step.
    """
    start = time.perf_counter()
    instance = make_monroe(profile, k)
    if k <= 2:
        algorithm = "greedy_monroe[exact:k<=2]"
        return _exact_monroe(instance, algorithm, None, DEFAULT_ENUMERATION_CAP, start)
    targets, _ = _greedy_picks(profile, _batch_sizes(profile.n, k), _BORDA.values(profile.m))
    return _borda_report(instance, Assignment(tuple(targets)), "greedy_monroe", start)


def _sample_committee(m: int, k: int, gen: SplitMix64) -> tuple[int, ...]:
    """One sampling run's committee: a uniform, sorted k-subset of 1..m."""
    return tuple(sorted(a + 1 for a in sample_distinct(m, k, gen)))


def sample_once_monroe(profile: Profile, k: int, seed: int) -> SolveReport:
    """One sampling step: a uniform k-subset of alternatives drawn from
    ``SplitMix64(seed)``, matched optimally; the seed is recorded in the
    report.  The expected total score is at least ``n (m - 1) / 2``, so at
    least half the optimum.  The paper's finer floor,
    ``(1 + k/m - k^2/(m^2-m) + k^3/(m^3-m^2)) / 2`` of the optimum, is
    unverified: identical profiles fall below it."""
    start = time.perf_counter()
    instance = make_monroe(profile, k)
    if not _integers((seed,)):
        raise ValueError("seed must be an integer")
    members = _sample_committee(profile.m, k, SplitMix64(seed))
    table = _cost_table(profile, _BORDA)
    _, assignment = _match(table, members, *_loads(instance, members), True)
    return _borda_report(instance, assignment, "sample_once_monroe", start, seed)


def combined_monroe(
    profile: Profile,
    k: int,
    epsilon: float = 0.1,
    lambda_: float = 0.9,
    seed: int = 0,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> SolveReport:
    """Dispatch between exact enumeration, the greedy pass, and repeated
    sampling; reaches a (0.715 - epsilon) fraction of the optimum with
    probability at least ``lambda_``, a ratio that rests on the unverified
    sampling floor of :func:`sample_once_monroe`.

    Exact enumeration handles small committees (k <= 8, or H_k/k >= eps/2);
    the paper's few-alternatives case, m <= 1 + 2/eps, is among them, since
    H_k/k < eps/2 gives 1 + 2/eps < 1 + k/H_k < k <= m for k >= 3.
    Otherwise the best of one greedy run and ``sampling_run_count(k, eps,
    lambda)`` sampling runs is returned.
    When the exact branch would enumerate more than ``enumeration_cap``
    committees, the greedy and sampling branch runs instead, with at most
    ``enumeration_cap`` sampling runs, and the algorithm string, which
    records the branch, gains ``[no-guarantee]``.  At k <= 2 that fallback
    runs the sampling alone (``combined_monroe[sample:R][no-guarantee]``),
    since the greedy pass there is the refused enumeration itself.

    Sampling runs are ranked by their cost-table totals, and only a strictly
    better one replaces the incumbent (greedy's result, if any).  A sample
    whose proven floor (:func:`matching._match`'s CC or load floor) is no
    better could at best tie, so it is not matched: one kernel matching per
    sample that can still win.  Each run draws from its own
    ``derive_seed(seed, index)`` stream, so a skip moves no draw.  Only the
    winner is scored by ``metric_l1``, which validates it.
    """
    start = time.perf_counter()
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie strictly inside (0, 1)")
    if not 0 < lambda_ < 1:
        raise ValueError("lambda must lie strictly inside (0, 1)")
    if not _integers((seed, enumeration_cap)):
        raise ValueError("seed and enumeration cap must be integers")
    if enumeration_cap < 1:
        raise ValueError("enumeration cap must be at least 1")
    instance = make_monroe(profile, k)
    exact = k <= 8 or harmonic(k) / k >= epsilon / 2
    if exact and math.comb(profile.m, k) <= enumeration_cap:
        algorithm = "combined_monroe[exact:small-k]"
        return _exact_monroe(instance, algorithm, seed, enumeration_cap, start)

    table = _cost_table(profile, _BORDA)
    top = profile.n * _BORDA.values(profile.m)[0]  # a cost is the top score minus the score
    # At k <= 2 (only reached over the cap) greedy_monroe would enumerate.
    greedy = greedy_monroe(profile, k) if k > 2 else None
    best = (top - greedy.value, greedy.assignment) if greedy else (math.inf, None)
    runs = sampling_run_count(k, epsilon, lambda_)
    if exact:
        # The run count grows as 1/(k eps^2), so it is largest exactly where
        # the exact branch is due: do no more matchings than the enumeration.
        runs = min(runs, enumeration_cap)
    for index in range(runs):
        members = _sample_committee(profile.m, k, SplitMix64(derive_seed(seed, index)))
        found = _match(table, members, *_loads(instance, members), True, best[0])
        if found is not None:
            best = found
    name = f"combined_monroe[{'greedy+sample' if k > 2 else 'sample'}:{runs}]"
    if exact:
        name += "[no-guarantee]"  # the exact branch was due but exceeds the cap
    report = _borda_report(instance, best[1], name, start, seed)
    assert report.value == top - best[0]
    return report


def _greedy_cover(prof: Profile, k: int, x: int) -> Assignment:
    """Shared cover loop: k picks by top-x coverage of unassigned agents
    (batches of up to n, each of the top x positions counting 1); each
    leftover agent goes to the first pick in its order, its best-ranked one."""
    targets, picked = _greedy_picks(prof, [prof.n] * k, (1,) * x)
    for j, order in enumerate(prof.orders):
        if not targets[j]:
            targets[j] = next(a for a in order if a in picked)
    return Assignment(targets)


def greedy_cc(profile: Profile, k: int) -> SolveReport:
    """Greedy cover solver for the Chamberlin-Courant restriction.

    The cover depth is ``x = ceil(m w(k) / k)`` with w the Lambert W
    function; the total score is at least ``greedy_cc_bound(n, m, k)``.

    Cost: one O(n x) rank-bucket index, then O(m x) per pick from the
    unassigned counts per (alternative, position).  Ties go to the lowest
    alternative index; leftover agents go to their best picked alternative.
    """
    start = time.perf_counter()
    instance = make_cc(profile, k)
    x = math.ceil(profile.m * lambert_w(k) / k)
    return _borda_report(instance, _greedy_cover(profile, k, x), "greedy_cc", start)


def greedy_cc_majority(
    profile: Profile,
    k: int,
    delta: float,
) -> SolveReport:
    """Cover solver tuned for the discard-a-delta-fraction egalitarian metric.

    Runs the same loop as :func:`greedy_cc` with depth
    ``x = ceil(-m ln(delta) / k)`` (capped at m) and reports the
    ``min_delta`` value: after dropping the worst ``floor(delta n)`` agents,
    every remaining agent keeps satisfaction at least ``m - x``.
    """
    start = time.perf_counter()
    instance = make_cc(profile, k)
    assignment = _greedy_cover(profile, k, cover_depth_majority(profile.m, k, delta))
    value = metric_min_delta(instance, _BORDA, assignment, delta)
    return SolveReport(
        assignment=assignment,
        objective=f"min_delta({delta})",
        value=value,
        algorithm="greedy_cc_majority",
        elapsed=time.perf_counter() - start,
    )


def cover_depth_majority(m: int, k: int, delta: float) -> int:
    """Cover depth used by :func:`greedy_cc_majority` (exposed for reporting)."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie strictly inside (0, 1), got {delta!r}")
    _check_positive(k)
    return min(m, math.ceil(-m * math.log(delta) / k))


def maxcover_cc_baseline(profile: Profile, k: int) -> SolveReport:
    """Classic marginal-gain greedy baseline for the CC restriction.

    Each step adds the alternative with the largest increase of the total
    best-member score; submodularity gives at least a (1 - 1/e) fraction of
    the optimum for any decreasing scoring function.  A score is ``psf(1)``
    minus a cost, so this is :func:`_cc_seed` on the Borda cost table: the
    largest gain is the largest drop of the summed least costs, and ties go
    to the lowest alternative index.  The committee is matched as exact CC
    matches its seed.
    """
    start = time.perf_counter()
    instance = make_cc(profile, k)
    table = _cost_table(profile, _BORDA)
    seed = _cc_seed(table, k)
    _, assignment = _match(table, seed, *_loads(instance, seed), True)
    return _borda_report(instance, assignment, "maxcover_cc_baseline", start)


def _walk(
    m: int, size: int, costs: Sequence[int], budget: int, table: Sequence[Sequence[int]],
    members: list[int], start: int, spent: int, best: Sequence[float],
) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
    """The committees of ``1..m`` with ``size`` members and a total cost
    within ``budget`` that extend the prefix ``members`` (costing ``spent``)
    from ``start`` on, lexicographically, by DFS.  Yields ``(members, best)``:
    ``best[j]`` is agent j's least cost ``table[a - 1][j]`` over the members,
    carried down from the prefix's ``best`` (all infinite at the root), so a
    committee costs O(n).  Costs are positive, so a prefix over the budget has
    no feasible extension.  A module function: no closure cycle outlives it."""
    last = len(members) + 1 == size
    for a in range(start, m - size + len(members) + 2):
        cost = spent + costs[a - 1]
        if cost > budget:
            continue
        here = list(map(min, best, table[a - 1]))
        members.append(a)
        if last:
            yield tuple(members), here
        else:
            yield from _walk(m, size, costs, budget, table, members, a + 1, cost, here)
        members.pop()


def _cc_seed(table: Sequence[Sequence[int]], k: int) -> tuple[int, ...]:
    """The greedy CC committee on the cost ``table`` (``table[a - 1][j]``),
    sorted: k picks, each the first alternative that most lowers the summed
    least costs, which start all infinite."""
    best = [math.inf] * len(table[0])
    picked: list[int] = []
    for _ in range(k):
        _, a = min(
            (sum(map(min, best, column)), a)
            for a, column in enumerate(table, 1)
            if a not in picked
        )
        picked.append(a)
        best = list(map(min, best, table[a - 1]))
    return tuple(sorted(picked))


def _budget_subsets(costs: Sequence[int], budget: int, limit: int) -> int:
    """Nonempty subsets of the alternatives whose costs total at most
    ``budget``, or ``limit`` if there are more.

    Every subset of an affordable committee is affordable, so one of ``d``
    members makes at least ``2 ** d - 1`` of them; below the limit that
    keeps ``d``, and so the recursion depth, under ``log2(limit) + 1``.
    The count takes the costs largest first, so the cheap ones it reaches
    last soon fit whole within what is left.
    """
    d = spent = 0
    for cost in sorted(costs):
        spent += cost
        if spent > budget:
            break
        d += 1
    if (1 << d) - 1 >= limit:
        return limit
    costs = sorted(costs, reverse=True)
    tails = [*accumulate(reversed(costs), initial=0)][::-1]
    return _count_subsets(costs, tails, limit, {}, 0, budget) - 1


def _count_subsets(
    costs: Sequence[int], tails: Sequence[int], limit: int, memo: dict, i: int, left: int
) -> int:
    """Subsets of the alternatives after the first ``i`` costing at most
    ``left``, the empty one included, saturated at ``limit + 1`` and kept
    in ``memo``; all of them if their total ``tails[i]`` fits.  A module
    function, so no closure cycle outlives it."""
    if tails[i] <= left:
        return min(1 << (len(costs) - i), limit + 1)
    if (i, left) not in memo:
        total = 1
        for j in range(i, len(costs)):
            if total > limit:
                break
            if costs[j] <= left:
                total += _count_subsets(costs, tails, limit, memo, j + 1, left - costs[j])
        memo[i, left] = min(total, limit + 1)
    return memo[i, left]


def exact_enumeration(
    instance: Instance,
    psf: ScoringFunction,
    objective: str,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> SolveReport:
    """Brute-force oracle: enumerate budget-feasible committees, value each
    under its optimal matching, return the best.

    Monroe and CC instances enumerate the ``C(m, K)`` size-K committees,
    general instances every budget-feasible subset.  Refuses with
    :class:`EnumerationCapExceeded` rather than hanging when the committee
    count exceeds ``enumeration_cap`` (for general instances, the count of
    budget-feasible subsets, stopped once it passes the cap); a scoring table
    short of ``m`` raises its ``ValueError`` before any committee.
    Committees are visited by size, then lexicographically; the first
    strictly best one wins.

    Every objective minimizes the sum (``l1_*``) or the largest (``min_dec``,
    ``max_inc``) of the agents' kernel edge costs, which flip a decreasing
    function's scores.  Each committee takes its load bounds from the
    instance (:func:`_loads`).  One DFS carries each agent's least cost over
    the members picked so far, so a committee's CC value (the sum or largest
    of these) costs O(n); it bounds the committee's value under any loads
    from below, and it is the value of a CC committee.

    Monroe and CC instances start from a seed incumbent, the greedy CC
    committee on the cost table (k picks, each the first alternative that
    most lowers the summed least costs); general instances start from an
    infinite value, which any committee beats.  Committees are ranked by
    ``(value, members)``, which is DFS order within one size, so only a
    committee ahead of the seed wins a tie with the incumbent.  A committee
    whose CC value is not below the incumbent's in that order could not win
    and is skipped.  Any other goes to :func:`matching._match` with that
    limit as ``below``, which refuses it by its load floor or values it: a
    CC committee by its CC value and each agent's cheapest member, with no
    kernel solve; any other by one kernel matching (``l1_*``) or one
    threshold search climbing from its floor through the levels below the
    limit (egalitarian; the first feasible level is the threshold).  A
    committee whose loads admit no complete assignment is skipped.  Only the
    winner is validated.
    """
    start = time.perf_counter()
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    wants_dec = objective.endswith("_dec")
    if wants_dec != psf.is_decreasing:
        raise ValueError(
            f"objective {objective} needs a "
            f"{'decreasing' if wants_dec else 'increasing'} scoring function"
        )
    cap = enumeration_cap
    if not _integers((cap,)):
        raise ValueError("enumeration cap must be an integer")
    m = instance.profile.m
    general = instance.system_tag == "general"
    if general:
        if _budget_subsets(instance.costs, instance.budget, cap + 1) > cap:
            raise EnumerationCapExceeded(None, cap)
        sizes: Iterable[int] = range(1, m + 1)
    else:
        k = instance.committee_size
        assert k is not None
        if math.comb(m, k) > cap:
            raise EnumerationCapExceeded(math.comb(m, k), cap)
        sizes = (k,)
    table = _cost_table(instance.profile, psf)
    total = objective.startswith("l1_")
    fold = sum if total else max
    seed, incumbent = None, (math.inf, None, ())  # incumbent: (value, assignment, members)
    if not general:
        seed = _cc_seed(table, k)
        incumbent = (*_match(table, seed, *_loads(instance, seed), total), seed)
    root = [math.inf] * instance.profile.n
    walks = (_walk(m, s, instance.costs, instance.budget, table, [], 1, 0, root) for s in sizes)
    for members, best in chain.from_iterable(walks):
        limit = incumbent[0] + (incumbent[2] is seed and members < seed)
        if fold(best) >= limit or members == seed:
            continue
        try:
            found = _match(table, members, *_loads(instance, members), total, limit)
        except InfeasibleMatchingError:
            continue
        if found is not None:
            incumbent = (*found, members)
    if incumbent[1] is None:
        raise InfeasibleMatchingError(
            "no budget-feasible committee can host all agents"
        )
    assignment = incumbent[1]
    if total:
        value = metric_l1(instance, psf, assignment)
    else:
        value = metric_extreme(instance, psf, assignment, "min" if psf.is_decreasing else "max")
    return SolveReport(
        assignment=assignment,
        objective=objective,
        value=value,
        algorithm="exact_enumeration",
        elapsed=time.perf_counter() - start,
    )
