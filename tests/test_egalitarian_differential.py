"""Differential sweep: ``match_egalitarian`` (one flow grown over ascending
cost levels) against the binary threshold search it replaced
(``oracles.match_egalitarian_reference``), at sizes brute force cannot reach.
Targets must agree, or both calls must raise the same exception type with
the same message.  The threshold search alone (``matching._bottleneck``, the
value exact enumeration reads per committee) must return the largest edge
cost of the reference's targets, or raise what the reference raises."""

import prefalloc.matching as matching
from prefalloc import (
    CapacityRegime,
    Profile,
    ScoringFunction,
    match_egalitarian,
)
from prefalloc.rng import SplitMix64, derive_seed, sample_distinct

from oracles import match_egalitarian_reference, shuffled

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


def _regime(n: int, k: int, case: int, rng: SplitMix64) -> CapacityRegime:
    """Balanced loads, explicit bounds whose totals admit n agents, or
    explicit bounds drawn without regard to n (often infeasible totals)."""
    kind = case % 3
    if kind == 0:
        return CapacityRegime.monroe_balanced()
    if kind == 1:
        lowers = [rng.randrange(n // k + 1) for _ in range(k)]
        uppers = [lo + rng.randrange(n + 1) for lo in lowers]
        short = n - sum(min(hi, n) for hi in uppers)
        if short > 0:
            uppers[rng.randrange(k)] += short
        if all(lo == 0 for lo in lowers) and all(hi >= n for hi in uppers):
            lowers[0] = 1  # keep the regime bounded
        return CapacityRegime.explicit(lowers, uppers)
    lowers = [rng.randrange(2 * n // k + 1) for _ in range(k)]
    uppers = [lo + rng.randrange(2 * n // k + 1) for lo in lowers]
    return CapacityRegime.explicit(lowers, uppers)


def _sweep_cases():
    """Yield ``(profile, psf, committee, regime, mode)``: impartial-culture
    and two-order profiles, n up to 200 (every fifth case large), m = 1 in
    every eighth case, Borda and table scores in both modes."""
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
        decreasing = case_rng.randrange(2) == 0
        if case_rng.randrange(5) < 3:
            psf = BD if decreasing else BI
        else:
            psf = _table(m + rng.randrange(3), rng, decreasing)
        mode = "max_min_sat" if decreasing else "min_max_dissat"
        committee = sorted(a + 1 for a in sample_distinct(m, k, case_rng))
        regime = _regime(n, k, case, case_rng)
        yield Profile.from_orders(orders), psf, committee, regime, mode


def test_match_egalitarian_matches_threshold_search_reference():
    raised = 0
    for args in _sweep_cases():
        got = _outcome(match_egalitarian, *args)
        want = _outcome(match_egalitarian_reference, *args)
        assert got == want, (args[0].n, args[0].m, args[2], args[3], args[4])
        raised += isinstance(got[0], type)
    # The sweep reaches both outcomes: assignments and refused load totals.
    assert 0 < raised < CASES


def _largest_cost(profile, psf, committee, regime, mode):
    """The largest edge cost of the reference's targets, or what it raises."""
    outcome = _outcome(match_egalitarian_reference, profile, psf, committee, regime, mode)
    if isinstance(outcome[0], type):
        return outcome
    rows = matching._cost_rows(profile, psf)
    return max(row[t - 1] for row, t in zip(rows, outcome))


def _threshold(profile, psf, committee, regime):
    """What the threshold search returns, or the type and message it raises."""
    lowers, uppers = regime.bounds_for(len(committee), profile.n)
    rows = matching._cost_rows(profile, psf)
    try:
        return matching._bottleneck(rows, tuple(committee), lowers, uppers)
    except ValueError as exc:
        return type(exc), str(exc)


def test_bottleneck_is_the_reference_threshold():
    # Bounds of 0 and n (and above n) go through the same grown network.
    rng = SplitMix64(SEED + 1)
    profile = Profile.from_orders([shuffled(range(1, 9), rng) for _ in range(30)])
    regime = CapacityRegime.explicit((0, 0, 0), (30, 31, 30))
    unbounded = (profile, BI, [2, 5, 7], regime, "min_max_dissat")
    raised = 0
    for profile, psf, committee, regime, mode in [*_sweep_cases(), unbounded]:
        got = _threshold(profile, psf, committee, regime)
        want = _largest_cost(profile, psf, committee, regime, mode)
        assert got == want, (profile.n, profile.m, committee, regime, mode)
        raised += isinstance(got, tuple)
    assert 0 < raised < CASES
