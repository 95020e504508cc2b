"""Committee-selection algorithms, the exact enumeration oracle, and the
numeric utilities their quality bounds need.

All positive guarantees hold for Borda satisfaction scores, so the greedy
and sampling solvers insist on ``borda_dec`` unless explicitly told to run
permissively (in which case the reported guarantees are void).  Every solver
requires unit agent weights.  Ties are always broken toward the lowest
alternative index and the lowest agent index.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from .core import (
    Assignment,
    Instance,
    Profile,
    ScoringFunction,
    SolveReport,
    metric_extreme,
    metric_l1,
    metric_min_delta,
)
from .instances import make_cc, make_monroe
from .matching import (
    CapacityRegime,
    InfeasibleMatchingError,
    match_cc,
    match_egalitarian,
    match_monroe_l1,
)
from .rng import SplitMix64, derive_seed, sample_distinct

DEFAULT_ENUMERATION_CAP = 2_000_000

OBJECTIVES = ("l1_dec", "l1_inc", "min_dec", "max_inc")


class UnsupportedInstanceError(ValueError):
    """The instance is outside what the solvers handle (e.g. non-unit weights)."""


class EnumerationCapExceeded(RuntimeError):
    """Exact enumeration would need more committees than the configured cap.

    ``required`` is None when the count stopped once it passed the cap.
    """

    def __init__(self, required: Optional[int], cap: int):
        self.required = required
        self.cap = cap
        needs = f"more than {cap}" if required is None else required
        super().__init__(f"exact enumeration needs {needs} committees, cap is {cap}")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the combined solver and the enumeration fallbacks."""

    epsilon: float = 0.1
    lambda_: float = 0.9
    seed: int = 0
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie strictly inside (0, 1)")
        if not 0 < self.lambda_ < 1:
            raise ValueError("lambda must lie strictly inside (0, 1)")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration cap must be at least 1")


def harmonic(k: int) -> Fraction:
    """Exact k-th harmonic number 1 + 1/2 + ... + 1/k."""
    if k < 1:
        raise ValueError("harmonic number index must be positive")
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on nonnegative reals: solves w * e^w = x.

    Newton iteration from the initial guess ln(1 + x); the residual
    ``|w e^w - x|`` is driven below ``1e-13 * max(1, x)``.
    """
    if x < 0:
        raise ValueError("lambert_w is only defined for nonnegative arguments")
    if x == 0:
        return 0.0
    w = math.log1p(x)
    for _ in range(64):
        ew = math.exp(w)
        residual = w * ew - x
        if abs(residual) <= 1e-13 * max(1.0, x):
            return w
        w -= residual / (ew * (1.0 + w))
    return w


def sampling_run_count(k: int, epsilon: float, lambda_: float) -> int:
    """Number of sampling repetitions that make the combined solver reach its
    ratio with probability ``lambda_``: ``ceil(-512 ln(1 - lambda) / (K eps^2))``.
    """
    if k < 1:
        raise ValueError("committee size must be positive")
    if not 0 < epsilon < 1 or not 0 < lambda_ < 1:
        raise ValueError("epsilon and lambda must lie strictly inside (0, 1)")
    return math.ceil(-512.0 * math.log(1.0 - lambda_) / (k * epsilon * epsilon))


def greedy_monroe_bound(n: int, m: int, k: int) -> Fraction:
    """Proven floor of the greedy balanced-committee solver's total score for
    k >= 3: ``(m-1) n (1 - (k-1)/(2(m-1)) - H_k/k)``."""
    return (
        (m - 1)
        * n
        * (1 - Fraction(k - 1, 2 * (m - 1)) - harmonic(k) / k)
    )


def greedy_cc_bound(n: int, m: int, k: int) -> float:
    """Proven floor of the greedy cover solver's total score:
    ``(1 - 2 w(k)/k) (m-1) n``."""
    return (1.0 - 2.0 * lambert_w(k) / k) * (m - 1) * n


def _as_profile(profile: Union[Profile, Instance], k: int) -> Profile:
    """The bare profile, once the weights and the committee size are checked."""
    prof = profile
    if isinstance(profile, Instance):
        if not profile.has_unit_weights:
            raise UnsupportedInstanceError("solvers require unit agent weights")
        prof = profile.profile
    if not 1 <= k <= prof.m:
        raise ValueError(f"committee size must lie in 1..{prof.m}, got {k}")
    return prof


def _require_borda_dec(psf: Optional[ScoringFunction], permissive: bool) -> ScoringFunction:
    if psf is None:
        return ScoringFunction.borda_dec()
    if psf.kind != "borda_dec" and not permissive:
        raise UnsupportedInstanceError(
            "guarantees are proven for borda_dec only; pass permissive=True to "
            "run the same loop without them"
        )
    if not psf.is_decreasing:
        raise ValueError("this solver maximizes a decreasing (satisfaction) function")
    return psf


def _batch_sizes(n: int, k: int) -> list:
    """Per-step assignment counts: step i takes ceil(remaining / (k - i))."""
    sizes = []
    remaining = n
    for i in range(k):
        size = -(-remaining // (k - i))
        sizes.append(size)
        remaining -= size
    return sizes


def _rank_buckets(prof: Profile) -> Tuple[list, list]:
    """Rank-bucket index of a profile, built in O(n m).

    ``buckets[a - 1][p - 1]`` lists the agents that rank alternative ``a`` at
    position ``p``, in ascending agent index, so walking ``buckets[a - 1]``
    yields agents in ``(position, agent index)`` order.  ``counts`` starts as
    the bucket sizes; callers keep it to the unassigned agents with
    :func:`_retire`.
    """
    m = prof.m
    buckets: list = [[[] for _ in range(m)] for _ in range(m)]
    for j, order in enumerate(prof.orders):
        for p, alt in enumerate(order):
            buckets[alt - 1][p].append(j)
    counts = [[len(bucket) for bucket in row] for row in buckets]
    return buckets, counts


def _retire(prof: Profile, counts: list, agents: Iterable[int]) -> None:
    """Drop newly assigned agents from the unassigned counts of every bucket."""
    orders = prof.orders
    for j in agents:
        for p, alt in enumerate(orders[j]):
            counts[alt - 1][p] -= 1


def greedy_monroe(
    profile: Union[Profile, Instance],
    k: int,
    psf: Optional[ScoringFunction] = None,
    permissive: bool = False,
) -> SolveReport:
    """Greedy balanced-committee solver for the Monroe restriction.

    For k <= 2 the exact optimum is computed by enumeration, which raises
    :class:`EnumerationCapExceeded` once ``C(m, k)`` exceeds
    ``DEFAULT_ENUMERATION_CAP``.  Otherwise the committee is built in k
    steps: each step scores every unused alternative by the total
    satisfaction of the not-yet-assigned agents that rank it best (one
    balanced batch worth of them, ties toward the lower agent index) and
    commits the first strictly best one.  For k >= 3 the total
    score is at least ``greedy_monroe_bound(n, m, k)``.

    Cost: one O(n m) rank-bucket index, then O(m) per candidate and step
    from the unassigned counts per (alternative, position); only the
    winning batch is read out of its buckets, in ``(position, agent index)``
    order.
    """
    start = time.perf_counter()
    prof = _as_profile(profile, k)
    psf = _require_borda_dec(psf, permissive)
    if k <= 2:
        inner = exact_enumeration(make_monroe(prof, k), psf, "l1_dec")
        return replace(
            inner,
            algorithm="greedy_monroe[exact:k<=2]",
            elapsed=time.perf_counter() - start,
        )
    n, m = prof.n, prof.m
    vals = psf.values(m)
    buckets, counts = _rank_buckets(prof)
    targets = [0] * n
    used = set()
    for size in _batch_sizes(n, k):
        best_alt = -1
        best_score = -1
        for alt in range(1, m + 1):
            if alt in used:
                continue
            need, total = size, 0
            for p, count in enumerate(counts[alt - 1]):
                if count >= need:
                    total += need * vals[p]
                    break
                total += count * vals[p]
                need -= count
            if total > best_score:
                best_alt, best_score = alt, total
        used.add(best_alt)
        batch: list = []
        for bucket in buckets[best_alt - 1]:
            batch.extend(j for j in bucket if targets[j] == 0)
            if len(batch) >= size:
                break
        del batch[size:]
        for j in batch:
            targets[j] = best_alt
        _retire(prof, counts, batch)
    assignment = Assignment(tuple(targets))
    value = metric_l1(make_monroe(prof, k), psf, assignment)
    name = "greedy_monroe"
    if psf.kind != "borda_dec":
        name += "[no-guarantee]"  # quality floor is proven for Borda only
    return SolveReport(
        assignment=assignment,
        objective="l1_dec",
        value=value,
        algorithm=name,
        elapsed=time.perf_counter() - start,
    )


def sample_once_monroe(
    profile: Union[Profile, Instance],
    k: int,
    rng: Union[int, SplitMix64],
    psf: Optional[ScoringFunction] = None,
    permissive: bool = False,
) -> SolveReport:
    """One sampling step: a uniform k-subset of alternatives, matched optimally.

    Accepts a seed or a live generator; a seed is recorded in the report.
    """
    start = time.perf_counter()
    prof = _as_profile(profile, k)
    psf = _require_borda_dec(psf, permissive)
    seed = rng if isinstance(rng, int) else None
    gen = SplitMix64(rng) if isinstance(rng, int) else rng
    committee = sorted(a + 1 for a in sample_distinct(prof.m, k, gen))
    assignment = match_monroe_l1(
        prof, psf, committee, CapacityRegime.monroe_balanced()
    )
    value = metric_l1(make_monroe(prof, k), psf, assignment)
    return SolveReport(
        assignment=assignment,
        objective="l1_dec",
        value=value,
        algorithm="sample_once_monroe",
        seed=seed,
        elapsed=time.perf_counter() - start,
    )


def combined_monroe(
    profile: Union[Profile, Instance],
    k: int,
    config: Optional[SolverConfig] = None,
) -> SolveReport:
    """Dispatch between exact enumeration, the greedy pass, and repeated
    sampling; reaches a (0.715 - epsilon) fraction of the optimum with
    probability at least ``lambda_``.

    Exact enumeration handles small committees (k <= 8, or H_k/k >= eps/2)
    and few alternatives (m <= 1 + 2/eps).  Otherwise the best of one greedy
    run and ``sampling_run_count(k, eps, lambda)`` sampling runs is returned.
    When the exact branch would enumerate more than ``config.enumeration_cap``
    committees, the greedy and sampling branch runs instead, with at most
    ``config.enumeration_cap`` sampling runs, and the algorithm string, which
    records the branch, gains ``[no-guarantee]``.  At k <= 2 that fallback
    runs the sampling alone (``combined_monroe[sample:R][no-guarantee]``),
    since the greedy pass there is the refused enumeration itself.
    """
    start = time.perf_counter()
    config = config or SolverConfig()
    prof = _as_profile(profile, k)
    psf = ScoringFunction.borda_dec()
    if harmonic(k) / k >= config.epsilon / 2 or k <= 8:
        branch: Optional[str] = "exact:small-k"
    elif prof.m <= 1 + 2 / config.epsilon:
        branch = "exact:small-m"
    else:
        branch = None
    if branch is not None and math.comb(prof.m, k) <= config.enumeration_cap:
        inner = exact_enumeration(make_monroe(prof, k), psf, "l1_dec", config=config)
        return replace(
            inner,
            algorithm=f"combined_monroe[{branch}]",
            seed=config.seed,
            elapsed=time.perf_counter() - start,
        )

    # At k <= 2 (only reached over the cap) greedy_monroe would enumerate.
    best = greedy_monroe(prof, k, psf) if k > 2 else None
    runs = sampling_run_count(k, config.epsilon, config.lambda_)
    if branch is not None:
        # The run count grows as 1/(k eps^2), so it is largest exactly where
        # the exact branch is due: do no more matchings than the enumeration.
        runs = min(runs, config.enumeration_cap)
    for index in range(runs):
        gen = SplitMix64(derive_seed(config.seed, index))
        candidate = sample_once_monroe(prof, k, gen, psf)
        if best is None or candidate.value > best.value:
            best = candidate
    assert best is not None
    name = f"combined_monroe[{'greedy+sample' if k > 2 else 'sample'}:{runs}]"
    if branch is not None:
        name += "[no-guarantee]"  # the exact branch was due but exceeds the cap
    return SolveReport(
        assignment=best.assignment,
        objective="l1_dec",
        value=best.value,
        algorithm=name,
        seed=config.seed,
        elapsed=time.perf_counter() - start,
    )


def _greedy_cover(prof: Profile, k: int, x: int) -> Assignment:
    """Shared cover loop: k picks by descending top-x coverage of unassigned
    agents (first strictly best alternative wins), then leftover agents go
    to their best picked alternative.  Coverage is summed from the
    rank-bucket counts, so a pick costs O(m x) plus its newly covered
    agents."""
    n, m = prof.n, prof.m
    positions = prof.positions
    buckets, counts = _rank_buckets(prof)
    targets = [0] * n
    picked: list = []
    for _ in range(k):
        best_alt = -1
        best_count = -1
        for alt in range(1, m + 1):
            if alt in picked:
                continue
            count = sum(counts[alt - 1][:x])
            if count > best_count:
                best_alt, best_count = alt, count
        picked.append(best_alt)
        covered = [
            j for bucket in buckets[best_alt - 1][:x] for j in bucket if targets[j] == 0
        ]
        for j in covered:
            targets[j] = best_alt
        _retire(prof, counts, covered)
    for j in range(n):
        if targets[j] == 0:
            targets[j] = min(picked, key=lambda a: positions[j][a - 1])
    return Assignment(tuple(targets))


def greedy_cc(
    profile: Union[Profile, Instance],
    k: int,
    psf: Optional[ScoringFunction] = None,
    permissive: bool = False,
) -> SolveReport:
    """Greedy cover solver for the Chamberlin-Courant restriction.

    The cover depth is ``x = ceil(m w(k) / k)`` with w the Lambert W
    function; the total score is at least ``greedy_cc_bound(n, m, k)``.

    Cost: one O(n m) rank-bucket index, then O(m x) per pick from the
    unassigned counts per (alternative, position).  Ties go to the lowest
    alternative index; leftover agents go to their best picked alternative.
    """
    start = time.perf_counter()
    prof = _as_profile(profile, k)
    psf = _require_borda_dec(psf, permissive)
    x = math.ceil(prof.m * lambert_w(k) / k)
    assignment = _greedy_cover(prof, k, x)
    value = metric_l1(make_cc(prof, k), psf, assignment)
    name = "greedy_cc"
    if psf.kind != "borda_dec":
        name += "[no-guarantee]"  # quality floor is proven for Borda only
    return SolveReport(
        assignment=assignment,
        objective="l1_dec",
        value=value,
        algorithm=name,
        elapsed=time.perf_counter() - start,
    )


def greedy_cc_majority(
    profile: Union[Profile, Instance],
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
    prof = _as_profile(profile, k)
    psf = ScoringFunction.borda_dec()
    assignment = _greedy_cover(prof, k, cover_depth_majority(prof.m, k, delta))
    value = metric_min_delta(make_cc(prof, k), psf, assignment, delta)
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
    return min(m, math.ceil(-m * math.log(delta) / k))


def maxcover_cc_baseline(
    profile: Union[Profile, Instance],
    k: int,
    psf: Optional[ScoringFunction] = None,
) -> SolveReport:
    """Classic marginal-gain greedy baseline for the CC restriction.

    Each step adds the alternative with the largest increase of the total
    best-member score; submodularity gives at least a (1 - 1/e) fraction of
    the optimum for any decreasing scoring function.
    """
    start = time.perf_counter()
    prof = _as_profile(profile, k)
    psf = psf or ScoringFunction.borda_dec()
    if not psf.is_decreasing:
        raise ValueError("baseline maximizes a decreasing (satisfaction) function")
    n, m = prof.n, prof.m
    positions = prof.positions
    vals = psf.values(m)
    best_score = [-1] * n
    picked: list = []
    for _ in range(k):
        best_alt = -1
        best_gain = -1
        for alt in range(1, m + 1):
            if alt in picked:
                continue
            gain = 0
            for j in range(n):
                s = vals[positions[j][alt - 1] - 1]
                if s > best_score[j]:
                    gain += s - max(best_score[j], 0)
            if gain > best_gain:
                best_alt, best_gain = alt, gain
        picked.append(best_alt)
        for j in range(n):
            s = vals[positions[j][best_alt - 1] - 1]
            if s > best_score[j]:
                best_score[j] = s
    assignment = match_cc(prof, psf, picked)
    value = metric_l1(make_cc(prof, k), psf, assignment)
    return SolveReport(
        assignment=assignment,
        objective="l1_dec",
        value=value,
        algorithm="maxcover_cc_baseline",
        elapsed=time.perf_counter() - start,
    )


def _objective_value(
    instance: Instance,
    psf: ScoringFunction,
    assignment: Assignment,
    objective: str,
) -> int:
    if objective in ("l1_dec", "l1_inc"):
        return metric_l1(instance, psf, assignment)
    if objective == "min_dec":
        return metric_extreme(instance, psf, assignment, "min")
    return metric_extreme(instance, psf, assignment, "max")


def _match_for_objective(
    prof: Profile,
    psf: ScoringFunction,
    committee: Sequence[int],
    regime: CapacityRegime,
    objective: str,
) -> Assignment:
    if objective in ("l1_dec", "l1_inc"):
        return match_monroe_l1(prof, psf, committee, regime)
    mode = "max_min_sat" if objective == "min_dec" else "min_max_dissat"
    return match_egalitarian(prof, psf, committee, regime, mode)


def _committees(
    m: int,
    sizes: Iterable[int],
    costs: Sequence[int],
    budget: int,
    columns: Optional[Sequence[Sequence[int]]],
    pick,
) -> Iterator[Tuple[Tuple[int, ...], Optional[Sequence[int]]]]:
    """Committees of ``1..m`` with a size in ``sizes`` and a total cost within
    ``budget``, by size and then lexicographically, from one DFS.

    Yields ``(members, best)``.  Given score ``columns`` (``columns[a - 1][j]``
    is agent j's score for alternative a), ``best[j]`` is the ``pick`` (max or
    min) of agent j's scores over the members, carried down the DFS so that a
    committee costs O(n); otherwise ``best`` is None.  Costs are positive, so
    a prefix over the budget has no feasible extension.
    """
    members: list = []

    def walk(start: int, spent: int, best, size: int):
        last = len(members) + 1 == size
        for a in range(start, m - size + len(members) + 2):
            cost = spent + costs[a - 1]
            if cost > budget:
                continue
            here = best
            if columns is not None:
                col = columns[a - 1]
                here = col if best is None else list(map(pick, best, col))
            members.append(a)
            if last:
                yield tuple(members), here
            else:
                yield from walk(a + 1, cost, here, size)
            members.pop()

    for size in sizes:
        yield from walk(1, 0, None, size)


def _budget_subsets(costs: Sequence[int], budget: int, limit: int) -> int:
    """Nonempty subsets of the alternatives whose costs total at most
    ``budget``, or ``limit`` if there are more.

    Every subset of an affordable committee is affordable, so one of ``d``
    members makes at least ``2 ** d - 1`` of them; below the limit that
    keeps ``d``, and so the recursion depth, under ``log2(limit) + 1``.
    """
    d = spent = 0
    for cost in sorted(costs):
        spent += cost
        if spent > budget:
            break
        d += 1
    if (1 << d) - 1 >= limit:
        return limit
    memo: dict = {}

    def count(i: int, left: int) -> int:
        # Subsets of the alternatives after the first i costing at most
        # ``left``, the empty one included, saturated at limit + 1.
        if (i, left) not in memo:
            total = 1
            for j in range(i, len(costs)):
                if total > limit:
                    break
                if costs[j] <= left:
                    total += count(j + 1, left - costs[j])
            memo[i, left] = min(total, limit + 1)
        return memo[i, left]

    return count(0, budget) - 1


def exact_enumeration(
    instance: Instance,
    psf: ScoringFunction,
    objective: str,
    config: Optional[SolverConfig] = None,
) -> SolveReport:
    """Brute-force oracle: enumerate budget-feasible committees, match each
    optimally, return the best.

    The loads come from the instance: Monroe and CC instances enumerate the
    ``C(m, K)`` size-K committees under balanced loads and no loads
    respectively; general instances enumerate every budget-feasible subset
    under its explicit capacities.  Refuses with
    :class:`EnumerationCapExceeded` rather than hanging when the committee
    count exceeds the cap (for general instances, the count of
    budget-feasible subsets, stopped once it passes the cap); a scoring table
    short of ``m`` raises its ``ValueError`` before any committee.
    Committees are visited by size, then lexicographically; the first
    strictly best one wins.

    Cost: one DFS carries each agent's best score over the members picked so
    far, so a CC committee costs O(n) and needs no matching; any other
    committee costs one kernel matching, its value read from the targets
    through one n x m score table.  Only the winner is matched (CC) and
    validated.
    """
    start = time.perf_counter()
    if objective not in OBJECTIVES:
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
    n, m = prof.n, prof.m
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
    vals = psf.values(m)
    table = [[vals[p - 1] for p in row] for row in prof.positions]
    columns = list(zip(*table)) if instance.system_tag == "cc" else None
    regime = CapacityRegime.monroe_balanced()
    pick = max if psf.is_decreasing else min
    value_of = {"l1_dec": sum, "l1_inc": sum, "min_dec": min, "max_inc": max}[objective]

    best_members: Optional[Tuple[int, ...]] = None
    best_assignment: Optional[Assignment] = None
    best_value = 0
    committees = _committees(m, sizes, instance.costs, instance.budget, columns, pick)
    for members, best in committees:
        assignment = None
        if columns is not None:
            value = value_of(best)
        else:
            if general:
                caps = tuple(instance.capacities[a - 1] for a in members)
                if sum(caps) < n:
                    continue
                regime = CapacityRegime.explicit((0,) * len(members), caps)
            try:
                assignment = _match_for_objective(prof, psf, members, regime, objective)
            except InfeasibleMatchingError:
                continue
            value = value_of(row[t - 1] for row, t in zip(table, assignment.targets))
        if (
            best_members is None
            or (wants_dec and value > best_value)
            or (not wants_dec and value < best_value)
        ):
            best_members, best_assignment, best_value = members, assignment, value
    if best_members is None:
        raise InfeasibleMatchingError(
            "no budget-feasible committee can host all agents"
        )
    if best_assignment is None:
        best_assignment = match_cc(prof, psf, best_members)
    return SolveReport(
        assignment=best_assignment,
        objective=objective,
        value=_objective_value(instance, psf, best_assignment, objective),
        algorithm="exact_enumeration",
        elapsed=time.perf_counter() - start,
    )
