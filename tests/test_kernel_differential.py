"""Differential sweep: the matching kernel ``matching._solve_bounded``
against the edge-list network it replaced (``oracles.solve_bounded_reference``).
Both must return the same targets, both None, or both raise
``InfeasibleMatchingError`` with the same message: the kernel through
:func:`solve_bounded`, which gives it the reference's contract.

Cases: impartial-culture, identical and two- to four-order profiles with n
from 1 to 80, plus two at the size of the ``monroe_sample`` benchmark
(n = 150, m = 30, k = 10); Borda costs in both directions and a steep
table; balanced bounds, random explicit bounds (often with infeasible
totals) and explicit bounds whose lower bounds sum to n (no slack pool);
no ceiling, and the lowest, middle and top cost level of the committee as
the ceiling (the reference drops the edges above it; the kernel is handed
the columns with those costs infinite, as ``matching._match`` hands them
to it).  Six larger cases (``_large_cases``) make long batches of pops at
one distance, after each of which the kernel pushes the agents the batch
improved: n from 150 to 300 with k not dividing n, IC, identical and
two-order profiles, balanced bounds or explicit ones with nonzero lowers,
and no ceiling or a low or middle one.  Without a ceiling the kernel must
also pop at most half, and push at most a third, as many heap entries as
the reference on the benchmark's four profiles, and exactly as many as the
list scan.

At n from 300 to 1000, where the reference is too slow, the kernel must
return what the list scan its packed agent lanes replaced
(``oracles.solve_bounded_scan``) returns, on IC, identical and two-order
profiles, balanced and explicit bounds, and columns capped at or just
below the egalitarian threshold.  Tables whose costs need lanes of 1, 2,
4, 8 and 9 bytes (Borda, a steep table, entries near 2**20, 2**40 and past
2**64) are held to the reference, and a column capped to all-infinite
serves no agent."""

import heapq

import prefalloc.matching as matching
from prefalloc import (
    InfeasibleMatchingError,
    Profile,
    ScoringFunction,
    gen_identical,
    gen_impartial_culture,
)
from prefalloc.rng import SplitMix64, derive_seed, sample_distinct

from oracles import balanced_bounds, shuffled, solve_bounded_reference, solve_bounded_scan

SEED = 4040
CASES = 48
LARGE = 6


def solve_bounded(table, members, lowers, uppers, ceiling):
    """The kernel under the reference's contract: the targets of
    ``matching._solve_bounded`` on the members' cost columns capped at
    ``ceiling``, or None; load totals that admit no complete assignment
    raise the refusal of ``matching._match``, which refuses them before any
    kernel solve."""
    n = len(table[0])
    if sum(lowers) > n or sum(min(hi, n) for hi in uppers) < n:
        matching._match(table, members, lowers, uppers, True)
        raise AssertionError(f"_match accepted load totals {lowers}, {uppers} for n = {n}")
    columns = [table[a - 1] for a in members]
    if ceiling is not None:
        columns = [[c if c <= ceiling else float("inf") for c in col] for col in columns]
    slots = matching._solve_bounded(columns, lowers, uppers)
    return None if slots is None else tuple(members[s] for s in slots)


def _outcome(solve, *args):
    """The targets or None a solve returns, or the message it raises."""
    try:
        return solve(*args)
    except InfeasibleMatchingError as error:
        return f"infeasible: {error}"


def _profile(n, m, kind, rng):
    if kind == 0:
        return Profile.from_orders([shuffled(range(1, m + 1), rng) for _ in range(n)])
    if kind == 1:
        return gen_identical(n, m)
    distinct = [shuffled(range(1, m + 1), rng) for _ in range(2 + rng.randrange(3))]
    return Profile.from_orders([distinct[rng.randrange(len(distinct))] for _ in range(n)])


def _two_orders(n, m, rng):
    orders = [shuffled(range(1, m + 1), rng) for _ in range(2)]
    return Profile.from_orders([orders[rng.randrange(2)] for _ in range(n)])


def _psf(m, rng):
    """Borda in either direction, or a steep table: rank p costs p cubed."""
    choice = rng.randrange(3)
    if choice == 2:
        return ScoringFunction.from_table_inc([p**3 for p in range(m)])
    return ScoringFunction.borda_dec() if choice else ScoringFunction.borda_inc()


def _bounds(n, k, kind, rng):
    """Balanced loads; random explicit bounds, their totals often
    infeasible; or lower bounds that sum to n, which leave no slack pool."""
    if kind == 0:
        return balanced_bounds(n, k)
    if kind == 1:
        lowers = [rng.randrange(n // k + 2) for _ in range(k)]
        return tuple(lowers), tuple(lo + rng.randrange(n // k + 3) for lo in lowers)
    lowers = [0] * k
    for _ in range(n):
        lowers[rng.randrange(k)] += 1
    return tuple(lowers), tuple(lo + rng.randrange(3) for lo in lowers)


def _ceilings(table, members):
    levels = sorted({c for a in members for c in table[a - 1]})
    return None, levels[0], levels[len(levels) // 2], levels[-1]


def _sample_case(j):
    """The benchmark's j-th profile and a committee drawn the way a request
    draws one: IC, n = 150, m = 30, k = 10, Borda, balanced loads."""
    profile = gen_impartial_culture(150, 30, derive_seed(0, j))
    table = matching._cost_table(profile, ScoringFunction.borda_dec())
    rng = SplitMix64(derive_seed(0, 4 + j))
    members = tuple(sorted(a + 1 for a in sample_distinct(30, 10, rng)))
    return table, members, *balanced_bounds(150, 10)


def _large_cases():
    """Long batches: n from 150 to 300 with k not dividing n, so the pool
    has room and member-to-pool paths run; IC, identical and two-order
    profiles, whose equal costs make long batches at one distance and many
    ties; balanced bounds, or explicit bounds with nonzero lowers; the
    columns uncapped, or capped at a low or a middle level."""
    rng = SplitMix64(SEED + 1)
    for case in range(LARGE):
        n, m, k = 150 + rng.randrange(150), 12 + rng.randrange(19), 3 + rng.randrange(8)
        n += n % k == 0
        profile = _profile(n, m, case % 3, rng) if case % 3 < 2 else _two_orders(n, m, rng)
        members = tuple(sorted(a + 1 for a in sample_distinct(m, k, rng)))
        table = matching._cost_table(profile, _psf(m, rng))
        bounds = balanced_bounds(n, k)
        if case % 2:  # each profile kind once with each kind of bounds
            lowers = [1 + rng.randrange(n // k) for _ in range(k)]
            bounds = tuple(lowers), tuple(max(lo, n // k + 1) + rng.randrange(3) for lo in lowers)
        levels = sorted({c for a in members for c in table[a - 1]})
        for ceiling in None, levels[len(levels) // 4], levels[len(levels) // 2]:
            yield table, members, *bounds, ceiling


def _cases():
    rng = SplitMix64(SEED)
    for case in range(CASES):
        n, m = 1 + rng.randrange(80), 1 + rng.randrange(12)
        profile = _profile(n, m, case % 4, rng)
        members = tuple(sorted(a + 1 for a in sample_distinct(m, 1 + rng.randrange(m), rng)))
        table = matching._cost_table(profile, _psf(m, rng))
        bounds = _bounds(n, len(members), case % 3, rng)
        for ceiling in _ceilings(table, members):
            yield table, members, *bounds, ceiling
    for j in range(2):
        table, members, lowers, uppers = _sample_case(j)
        for ceiling in _ceilings(table, members)[1:3]:  # no ceiling: counted below
            yield table, members, lowers, uppers, ceiling
    yield from _large_cases()


def test_kernel_matches_edge_list_reference():
    seen = {"targets": 0, "none": 0, "infeasible": 0}
    for case, args in enumerate(_cases()):
        got = _outcome(solve_bounded, *args)
        assert got == _outcome(solve_bounded_reference, *args), (case, args[1:])
        if got is None:
            seen["none"] += 1
        elif isinstance(got, str):
            seen["infeasible"] += 1
        else:
            seen["targets"] += 1
    # The sweep reaches every outcome: targets, no complete matching within
    # the ceiling, and refused load totals.
    assert min(seen.values()) > 0, seen



def test_kernel_breaks_sink_ties_as_the_reference():
    # Two unmatched agents reach the sink at one label, from different labels
    # in the search before: their potentials, and so their pop order, decide
    # which one is matched.  The sink's edges go back to matched agents only;
    # edges to the unmatched ones too would lower their potentials and hand
    # the tie to the lower index instead.
    a, b, c = (3, 1, 4, 2, 5, 6), (3, 4, 2, 5, 1, 6), (1, 4, 6, 2, 3, 5)
    d, e, f = (5, 1, 2, 3, 6, 4), (5, 2, 6, 3, 1, 4), (4, 1, 2, 5, 3, 6)
    g, h = (4, 3, 1, 5, 2), (4, 2, 5, 3, 1)
    cases = [
        ([a, a, b, b, c, b], (3, 4, 5), (2, 2, 2), (2, 2, 2)),
        ([d, d, e, e, f], (1, 3, 5), (1, 1, 1), (2, 2, 2)),
        ([g, h, g, (3, 2, 1, 4, 5)], (1, 2, 4), (1, 1, 1), (2, 2, 2)),
    ]
    for orders, members, lowers, uppers in cases:
        table = matching._cost_table(Profile.from_orders(orders), ScoringFunction.borda_dec())
        args = table, members, lowers, uppers, None
        assert solve_bounded(*args) == solve_bounded_reference(*args), members


def test_kernel_pops_at_most_half_the_reference(monkeypatch):
    # The kernel reads heapq.heappop and heapq.heappush at call time, so the
    # patches count its pops and pushes as well as the reference's and the
    # list scan's.  Pushing each agent once per batch of member pops keeps
    # the kernel's pushes under a third of the reference's (about a
    # quarter), and the packed lanes push and pop just what the scan does.
    counts = {"pop": 0, "push": 0}
    heappop, heappush = heapq.heappop, heapq.heappush

    def popped(heap):
        counts["pop"] += 1
        return heappop(heap)

    def pushed(heap, item):
        counts["push"] += 1
        heappush(heap, item)

    monkeypatch.setattr(heapq, "heappop", popped)
    monkeypatch.setattr(heapq, "heappush", pushed)
    for j in range(4):
        args = (*_sample_case(j), None)
        counts.update(pop=0, push=0)
        want = solve_bounded_reference(*args)
        reference = dict(counts)
        counts.update(pop=0, push=0)
        solve_bounded_scan([args[0][a - 1] for a in args[1]], *args[2:4])
        scan = dict(counts)
        counts.update(pop=0, push=0)
        assert solve_bounded(*args) == want
        assert 2 * counts["pop"] <= reference["pop"], (j, counts, reference)
        assert 3 * counts["push"] <= reference["push"], (j, counts, reference)
        assert counts == scan, (j, counts, scan)  # the lanes move no heap entry


def _scale_cases():
    """n from 300 to 1000, k not dividing n: IC, identical and two-order
    profiles; balanced bounds or explicit bounds with nonzero lowers; the
    columns uncapped, capped at the egalitarian threshold (the probe that
    succeeds), or capped one level below it (a probe that fails)."""
    rng = SplitMix64(SEED + 2)
    psfs = ScoringFunction.borda_dec(), ScoringFunction.borda_inc()
    # (profile kind, n, m, k, explicit bounds, levels below the threshold or None)
    shapes = [
        (0, 1000, 30, 7, False, None), (1, 500, 20, 7, True, None), (2, 400, 25, 6, False, 0),
        (0, 301, 30, 4, False, 1), (0, 450, 30, 9, True, 0), (0, 550, 40, 8, True, 1),
    ]
    for kind, n, m, k, explicit, drop in shapes:
        profile = _profile(n, m, kind, rng) if kind < 2 else _two_orders(n, m, rng)
        members = tuple(sorted(a + 1 for a in sample_distinct(m, k, rng)))
        table = matching._cost_table(profile, psfs[rng.randrange(2)])
        lowers, uppers = balanced_bounds(n, k)
        if explicit:
            lowers = tuple(1 + rng.randrange(n // k) for _ in range(k))
            uppers = tuple(max(lo, n // k + 1) + rng.randrange(3) for lo in lowers)
        columns = [table[a - 1] for a in members]
        if drop is not None:
            threshold, _ = matching._match(table, members, lowers, uppers, False)
            levels = sorted({c for column in columns for c in column if c <= threshold})
            level = levels[-1 - drop]
            columns = [[c if c <= level else float("inf") for c in col] for col in columns]
        yield columns, lowers, uppers


def test_kernel_matches_list_scan_at_scale():
    # The packed lanes hold each member's agent scan; the list scan they
    # replaced tests one edge at a time, and both must leave the same
    # matching, or both none, at sizes the edge-list reference is too slow for.
    seen = {"targets": 0, "none": 0}
    for case, (columns, lowers, uppers) in enumerate(_scale_cases()):
        got = matching._solve_bounded(columns, lowers, uppers)
        assert got == solve_bounded_scan(columns, lowers, uppers), case
        seen["none" if got is None else "targets"] += 1
    assert seen == {"targets": 4, "none": 2}, seen


def test_kernel_lane_widths_match_edge_list_reference(monkeypatch):
    # Each table, uncapped, needs its own lane width: 1 and 2 bytes for
    # Borda and the steep table, 3 bytes rounded up to 4 for the steep table
    # at m = 30, 4 and 6 (rounded up to 8) for entries near 2**20 and 2**40,
    # and 9, read back a slice at a time, for entries past 2**64.  Two cases
    # leave 2 * stop within a factor 1.25 of the guard bit, so the least
    # width is the only one that passes.
    widths = []
    packed = matching._packed
    monkeypatch.setattr(
        matching, "_packed", lambda lanes, width: packed(lanes, widths.append(width) or width)
    )
    rng = SplitMix64(SEED + 3)
    steep = ScoringFunction.from_table_inc([p**3 for p in range(30)])
    tables = [  # (psf, n, m, k, width); m = 14 leaves 2 * stop just below a guard bit
        (ScoringFunction.borda_inc(), 20, 5, 2, 1),
        (ScoringFunction.borda_dec(), 40, 14, 2, 1),
        (ScoringFunction.borda_dec(), 40, 12, 4, 2),
        (steep, 30, 14, 4, 2),
        (steep, 30, 30, 5, 4),
    ]
    for scale, width in (2**20, 4), (2**40, 8), (2**64, 9):
        psf = ScoringFunction.from_table_inc([p and scale + p * p for p in range(8)])
        tables.append((psf, 24, 8, 3, width))
    for psf, n, m, k, width in tables:
        profile = _profile(n, m, 0, rng)
        members = tuple(sorted(a + 1 for a in sample_distinct(m, k, rng)))
        table = matching._cost_table(profile, psf)
        for ceiling in _ceilings(table, members)[:3]:  # capped, the lanes may narrow
            widths.clear()
            args = table, members, *balanced_bounds(n, k), ceiling
            assert solve_bounded(*args) == solve_bounded_reference(*args), (width, ceiling)
            assert ceiling is not None or set(widths) == {width}, widths


def test_kernel_refuses_a_column_capped_to_all_infinite():
    # A member with no agent edge left serves nobody: with a lower bound the
    # search cannot complete, and without one the others carry every agent
    # as they would alone.  With every column infinite there is no finite
    # cost at all.
    profile = gen_impartial_culture(30, 8, 5)
    table = matching._cost_table(profile, ScoringFunction.borda_dec())
    members, inf = (2, 5, 7), float("inf")
    columns = [table[1], [inf] * 30, table[6]]
    assert matching._solve_bounded(columns, (10, 10, 10), (10, 10, 10)) is None
    assert matching._solve_bounded([[inf] * 30] * 3, (0, 0, 0), (30, 30, 30)) is None
    slots = matching._solve_bounded(columns, (0, 0, 0), (15, 15, 15))
    alone = solve_bounded_reference(table, (2, 7), (0, 0), (15, 15), None)
    assert tuple(members[s] for s in slots) == alone
