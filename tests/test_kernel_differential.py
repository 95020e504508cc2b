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
the ceiling.  Without a ceiling the kernel must also pop at most half as
many heap entries as the reference on the benchmark's four profiles."""

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

from oracles import balanced_bounds, shuffled, solve_bounded_reference

SEED = 4040
CASES = 48


def solve_bounded(table, members, lowers, uppers, ceiling):
    """The kernel under the reference's contract: the targets of
    ``matching._solve_bounded`` on the members' cost columns, or None; load
    totals that admit no complete assignment raise the refusal of
    ``matching._match``, which refuses them before any kernel solve."""
    n = len(table[0])
    if sum(lowers) > n or sum(min(hi, n) for hi in uppers) < n:
        matching._match(table, members, lowers, uppers, True)
        raise AssertionError(f"_match accepted load totals {lowers}, {uppers} for n = {n}")
    slots = matching._solve_bounded([table[a - 1] for a in members], lowers, uppers, ceiling)
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


def test_kernel_pops_at_most_half_the_reference(monkeypatch):
    # The kernel reads heapq.heappop at call time, so the patch counts its
    # pops as well as the reference's.
    pops = [0]
    heappop = heapq.heappop

    def counted(heap):
        pops[0] += 1
        return heappop(heap)

    monkeypatch.setattr(heapq, "heappop", counted)
    for j in range(4):
        args = (*_sample_case(j), None)
        pops[0] = 0
        want = solve_bounded_reference(*args)
        reference = pops[0]
        pops[0] = 0
        assert solve_bounded(*args) == want
        assert 2 * pops[0] <= reference, (j, pops[0], reference)
