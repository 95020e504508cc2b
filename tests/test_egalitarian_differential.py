"""Differential sweep: ``match_egalitarian`` (threshold probes with the
min-cost kernel from a proven floor, ``matching._match``) against the
binary threshold search it replaced (``oracles.match_egalitarian_reference``),
at sizes brute force cannot reach.  Targets must agree, or both calls must
raise the same exception type with the same message.  The threshold the
search returns (the value exact enumeration reads per committee) must be the
largest edge cost of the reference's targets, and both floors at most that.
The probe budget counts the kernel solves of each call."""

import functools
import math

import prefalloc.matching as matching
from prefalloc import (
    Assignment,
    Profile,
    ScoringFunction,
    gen_impartial_culture,
    match_egalitarian,
)
from prefalloc.rng import SplitMix64, derive_seed, sample_distinct

from oracles import balanced_bounds, match_egalitarian_reference, shuffled

SEED = 5005
CASES = 48
BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()


def _outcome(matcher, *args):
    """The targets a call returns, or the type and message of what it raises."""
    try:
        return matcher(*args).targets
    except ValueError as exc:
        return type(exc), str(exc)


def _table(length: int, rng: SplitMix64, decreasing: bool) -> ScoringFunction:
    """Random strictly monotone table with repeated step sizes, so that
    different cost levels of one committee often coincide."""
    values = [0]
    for _ in range(length - 1):
        values.append(values[-1] + 1 + rng.randrange(3))
    if decreasing:
        return ScoringFunction.from_table_dec(reversed(values))
    return ScoringFunction.from_table_inc(values)


def _bounds(n: int, k: int, case: int, rng: SplitMix64) -> tuple:
    """(lowers, uppers): None for balanced loads, explicit bounds whose
    totals admit n agents, or explicit bounds drawn without regard to n
    (often infeasible totals)."""
    kind = case % 3
    if kind == 0:
        return None, None
    if kind == 1:
        lowers = [rng.randrange(n // k + 1) for _ in range(k)]
        uppers = [lo + rng.randrange(n + 1) for lo in lowers]
        short = n - sum(min(hi, n) for hi in uppers)
        if short > 0:
            uppers[rng.randrange(k)] += short
        if all(lo == 0 for lo in lowers) and all(hi >= n for hi in uppers):
            lowers[0] = 1  # keep the loads bounded
        return lowers, uppers
    lowers = [rng.randrange(2 * n // k + 1) for _ in range(k)]
    uppers = [lo + rng.randrange(2 * n // k + 1) for lo in lowers]
    return lowers, uppers


def _psf(m: int, rng: SplitMix64, case_rng: SplitMix64):
    """Borda or a table function, decreasing or increasing."""
    decreasing = case_rng.randrange(2) == 0
    if case_rng.randrange(5) < 3:
        return BD if decreasing else BI
    return _table(m + rng.randrange(3), rng, decreasing)


def _sweep_cases():
    """Yield ``(kind, (profile, psf, committee, lowers, uppers))``:
    impartial-culture and two-order profiles, n up to 200 (every fifth case
    large), m = 1 in every eighth case, Borda and table scores in both
    directions."""
    rng = SplitMix64(SEED)
    for case in range(CASES):
        case_rng = SplitMix64(derive_seed(SEED, case))
        m = 1 if case % 8 == 6 else 2 + rng.randrange(24)
        k = 1 + rng.randrange(min(m, 6))
        n = 100 + rng.randrange(101) if case % 5 == 4 else k + rng.randrange(40)
        if case % 2:
            orders = [shuffled(range(1, m + 1), case_rng) for _ in range(n)]
        else:
            pair = [shuffled(range(1, m + 1), case_rng) for _ in range(2)]
            orders = [pair[case_rng.randrange(2)] for _ in range(n)]
        psf = _psf(m, rng, case_rng)
        committee = sorted(a + 1 for a in sample_distinct(m, k, case_rng))
        bounds = _bounds(n, k, case, case_rng)
        kind = "ic" if case % 2 else "2-order"
        yield kind, (Profile.from_orders(orders), psf, committee, *bounds)


def _structured_cases():
    """Identical, two- and three-order profiles with n >= 100 under balanced
    and feasible explicit loads.  Few distinct orders make the floor miss
    the threshold often enough that the search bisects."""
    rng = SplitMix64(SEED + 2)
    for case in range(10):
        case_rng = SplitMix64(derive_seed(SEED + 2, case))
        count = (1, 2, 3, 3, 3)[case // 2]
        m = 4 + rng.randrange(20)
        k = 2 + rng.randrange(min(m - 1, 5))
        n = 100 + rng.randrange(101)
        base = [shuffled(range(1, m + 1), case_rng) for _ in range(count)]
        orders = [base[case_rng.randrange(count)] for _ in range(n)]
        psf = _psf(m, rng, case_rng)
        committee = sorted(a + 1 for a in sample_distinct(m, k, case_rng))
        bounds = _bounds(n, k, case % 2, case_rng)
        kind = "identical" if count == 1 else f"{count}-order"
        yield kind, (Profile.from_orders(orders), psf, committee, *bounds)


def _ic_trials():
    """Small impartial-culture cases, n >= k so that some member has a
    lower bound, under balanced loads or bounded explicit ones."""
    rng = SplitMix64(8080)
    table = ScoringFunction.from_table_dec([9, 7, 6, 4, 3, 1, 0])
    for trial in range(60):
        m = 1 + rng.randrange(7)
        k = 1 + rng.randrange(min(4, m))
        n = k + rng.randrange(10)
        prof = gen_impartial_culture(n, m, derive_seed(8080, trial))
        committee = sorted(a + 1 for a in sample_distinct(m, k, rng))
        psf = (BD, BI, table)[trial % 3]
        bounds = None, None
        if trial % 2:
            lowers = [rng.randrange(2) for _ in range(k)]
            uppers = [lo + 1 + rng.randrange(n) for lo in lowers]
            if sum(lowers) <= n <= sum(min(hi, n) for hi in uppers) and any(
                lo > 0 or hi < n for lo, hi in zip(lowers, uppers)
            ):
                bounds = lowers, uppers
        yield "ic", (prof, psf, committee, *bounds)


@functools.cache
def _cases():
    # Bounds of 0 and n (and above n) restrict nothing: match_cc assigns.
    rng = SplitMix64(SEED + 1)
    profile = Profile.from_orders([shuffled(range(1, 9), rng) for _ in range(30)])
    unbounded = ("ic", (profile, BI, [2, 5, 7], (0, 0, 0), (30, 31, 30)))
    return [*_sweep_cases(), *_structured_cases(), *_ic_trials(), unbounded]


@functools.cache
def _reference(case: int):
    """The reference outcome of a case, computed once for both tests."""
    return _outcome(match_egalitarian_reference, *_cases()[case][1])


def _recorded(monkeypatch, name):
    """Patch ``matching.<name>`` to record each call: the slot a call
    appends holds its result once it returns."""
    results = []
    original = getattr(matching, name)

    def recorded(*args):
        slot = len(results)
        results.append(None)
        results[slot] = original(*args)
        return results[slot]

    monkeypatch.setattr(matching, name, recorded)
    return results


def _costs(profile, psf, committee):
    """The committee's cost columns, ``columns[i][j]`` agent j's cost for
    its i-th member."""
    table = matching._cost_table(profile, psf)
    return [table[a - 1] for a in committee]


def _resolved(profile, committee, lowers, uppers):
    """The bounds a call with these arguments runs under."""
    if lowers is None:
        return balanced_bounds(profile.n, len(committee))
    return lowers, uppers


def _floors(profile, psf, committee, lowers, uppers):
    """The CC bound (each agent's least cost over the committee, at its
    largest) and the load bound (the ``lo``-th smallest cost of a member
    with lower bound ``lo``, at its largest; 0 if no member has one)."""
    lowers, _ = _resolved(profile, committee, lowers, uppers)
    columns = _costs(profile, psf, committee)
    cc = max(map(min, zip(*columns)))
    load = max(
        (sorted(col)[lo - 1] for lo, col in zip(lowers, columns) if 0 < lo <= profile.n),
        default=0,
    )
    return cc, load


def _largest_cost(profile, psf, committee, targets):
    """The largest edge cost of an assignment: its egalitarian threshold."""
    table = matching._cost_table(profile, psf)
    return max(table[t - 1][j] for j, t in enumerate(targets))


def test_match_egalitarian_matches_threshold_search_reference(monkeypatch):
    searches = _recorded(monkeypatch, "_match")
    raised = 0
    for case, (_, args) in enumerate(_cases()):
        del searches[:]
        got = _outcome(match_egalitarian, *args)
        want = _reference(case)
        assert got == want, (case, args[0].n, args[0].m, args[2], args[3], args[4])
        if isinstance(got[0], type):
            raised += 1
            continue
        profile, psf, committee = args[:3]
        threshold = _largest_cost(profile, psf, committee, want)
        assert searches == [(threshold, Assignment(want))], case
        cc, load = _floors(*args)
        assert cc <= threshold and load <= threshold, case
    # The sweep reaches both outcomes: assignments and refused load totals.
    assert 0 < raised < CASES


def _threshold(profile, psf, committee, lowers, uppers):
    """What the threshold search returns, or the type and message it raises."""
    lowers, uppers = _resolved(profile, committee, lowers, uppers)
    table = matching._cost_table(profile, psf)
    try:
        threshold, _ = matching._match(profile, table, tuple(committee), lowers, uppers, False)
    except ValueError as exc:
        return type(exc), str(exc)
    return threshold


def test_bottleneck_is_the_reference_threshold():
    # Called alone, as exact enumeration calls it per committee: the
    # threshold is the largest edge cost of the reference's targets, or the
    # search raises what the reference raises.
    raised = 0
    for case, (_, args) in enumerate(_cases()):
        profile, psf, committee = args[:3]
        got = _threshold(*args)
        want = _reference(case)
        if isinstance(want[0], type):
            assert got == want, case
            raised += 1
        else:
            assert got == _largest_cost(profile, psf, committee, want), case
    assert 0 < raised < CASES


def test_match_egalitarian_probe_budget(monkeypatch):
    # One kernel solve per probed level: exactly one when the floor is the
    # threshold, which holds on every identical case and every
    # impartial-culture case under balanced loads, and at most
    # 1 + ceil(log2 L) otherwise, with L the levels at or above the floor.
    # Refused load totals raise from the first probe; bounds of 0 and n
    # probe nothing.
    probes = _recorded(monkeypatch, "_solve_bounded")
    bisected = 0
    for case, (kind, args) in enumerate(_cases()):
        want = _reference(case)  # its solves, when not yet cached, are not counted
        del probes[:]
        outcome = _outcome(match_egalitarian, *args)
        profile, psf, committee = args[:3]
        lowers, uppers = _resolved(profile, committee, *args[3:])
        if all(lo == 0 for lo in lowers) and all(hi >= profile.n for hi in uppers):
            assert not probes, case
            continue
        if isinstance(outcome[0], type):
            assert len(probes) == 1, case
            continue
        floor = max(_floors(*args))
        threshold = _largest_cost(profile, psf, committee, want)
        if kind == "identical" or (kind == "ic" and args[3] is None):
            assert floor == threshold, (case, kind)
        if floor == threshold:
            assert len(probes) == 1, case
        else:
            levels = {c for col in _costs(profile, psf, committee) for c in col if c >= floor}
            assert 1 < len(probes) <= 1 + math.ceil(math.log2(len(levels))), case
            bisected += 1
    assert bisected > 0
