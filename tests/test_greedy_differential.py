"""Differential sweep: the rank-bucket greedy solvers against the sort- and
scan-based loops they replaced (``tests/oracles.py``), at sizes brute force
cannot reach.  Targets, value and algorithm string must all agree.  The
solvers score with Borda only, so table scorers drive the shared pick loop
(``solvers._greedy_picks``) directly."""

import math

from prefalloc import (
    Assignment,
    Profile,
    ScoringFunction,
    greedy_cc,
    greedy_cc_majority,
    greedy_monroe,
    lambert_w,
    make_cc,
    make_monroe,
    metric_l1,
    metric_min_delta,
)
from prefalloc.rng import SplitMix64, derive_seed
from prefalloc.solvers import _batch_sizes, _greedy_picks, cover_depth_majority

from oracles import (
    batch_sizes_reference,
    greedy_cover_reference,
    greedy_monroe_reference,
    shuffled,
)

BD = ScoringFunction.borda_dec()
SEED = 606
CASES = 90
LARGE_CASES = 6


def _table_dec(length: int, rng: SplitMix64) -> ScoringFunction:
    """Random strictly decreasing table ending at 0, with repeated step sizes
    so that different batches often tie."""
    values = [0]
    for _ in range(length - 1):
        values.append(values[-1] + 1 + rng.randrange(3))
    return ScoringFunction.from_table_dec(reversed(values))


def _sweep_cases():
    """Yield ``(profile, psf, rng)``: impartial-culture profiles, tie-heavy
    profiles drawn from 2-3 distinct orders, and Borda or table scorers;
    ``rng`` is the case's own stream for the caller's further draws."""
    rng = SplitMix64(SEED)
    for case in range(CASES):
        n = 10 + rng.randrange(291)               # 10..300
        m = 3 + rng.randrange(28)                 # 3..30
        case_rng = SplitMix64(derive_seed(SEED, case))
        if case % 3 == 0:
            orders = [shuffled(range(1, m + 1), case_rng) for _ in range(n)]
        else:
            distinct = [shuffled(range(1, m + 1), case_rng) for _ in range(2 + case % 2)]
            orders = [distinct[case_rng.randrange(len(distinct))] for _ in range(n)]
        psf = BD if case % 4 < 2 else _table_dec(m + rng.randrange(3), rng)
        yield Profile.from_orders(orders), psf, case_rng


def test_batch_sizes_match_the_division_loop():
    for n in range(1, 301):
        for k in range(1, 61):
            assert _batch_sizes(n, k) == batch_sizes_reference(n, k), (n, k)


def test_greedy_monroe_matches_sort_reference():
    for profile, psf, rng in _sweep_cases():
        n, m = profile.n, profile.m
        k = 3 + rng.randrange(min(10, m) - 2)
        targets = greedy_monroe_reference(profile, k, psf)
        if psf is not BD:
            picks, _ = _greedy_picks(profile, _batch_sizes(n, k), psf.values(m))
            assert tuple(picks) == targets, (n, m, k)
            continue
        report = greedy_monroe(profile, k)
        value = metric_l1(make_monroe(profile, k), BD, Assignment(targets))
        assert report.assignment.targets == targets, (n, m, k)
        assert report.value == value
        assert report.algorithm == "greedy_monroe"


def _cover_cases():
    """The sweep's cases, then impartial-culture and tie-heavy profiles in
    the low thousands of agents, with 40-50 alternatives."""
    yield from _sweep_cases()
    rng = SplitMix64(SEED + 1)
    for case in range(LARGE_CASES):
        n = 1000 + rng.randrange(2001)            # 1000..3000
        m = 40 + rng.randrange(11)                # 40..50
        case_rng = SplitMix64(derive_seed(SEED + 1, case))
        if case % 2:
            orders = [shuffled(range(1, m + 1), case_rng) for _ in range(n)]
        else:
            distinct = [shuffled(range(1, m + 1), case_rng) for _ in range(3)]
            orders = [distinct[case_rng.randrange(3)] for _ in range(n)]
        yield Profile.from_orders(orders), BD, case_rng


def _leftovers(profile, targets, x):
    """How many agents have a target below their top x: the cover's leftovers."""
    return sum(order.index(t) >= x for order, t in zip(profile.orders, targets))


def test_greedy_cc_matches_scan_reference():
    # The cover picks read positions only, so every case runs the solver.
    leftovers = 0
    for profile, _psf, rng in _cover_cases():
        k = 1 + rng.randrange(min(10, profile.m))
        report = greedy_cc(profile, k)
        x = math.ceil(profile.m * lambert_w(k) / k)
        targets = greedy_cover_reference(profile, k, x)
        value = metric_l1(make_cc(profile, k), BD, Assignment(targets))
        assert report.assignment.targets == targets, (profile.n, profile.m, k)
        assert report.value == value
        assert report.algorithm == "greedy_cc"
        leftovers += _leftovers(profile, targets, x)
    assert leftovers > 0


def test_greedy_cc_majority_matches_scan_reference():
    leftovers = 0
    for profile, _psf, rng in _cover_cases():
        k = 1 + rng.randrange(min(10, profile.m))
        delta = (1 + rng.randrange(9)) / 10       # 0.1..0.9
        report = greedy_cc_majority(profile, k, delta)
        x = cover_depth_majority(profile.m, k, delta)
        targets = greedy_cover_reference(profile, k, x)
        value = metric_min_delta(make_cc(profile, k), BD, Assignment(targets), delta)
        assert report.assignment.targets == targets, (profile.n, profile.m, k)
        assert report.value == value
        assert report.algorithm == "greedy_cc_majority"
        leftovers += _leftovers(profile, targets, x)
    assert leftovers > 0
