"""Differential sweep: ``exact_enumeration`` (one prefix DFS, only the winner
matched and validated) against the per-committee loop it replaced
(``oracles.exact_enumeration_reference``).  Value, targets, algorithm and
objective must agree, or both calls must raise the same exception type with
the same message.  Desk-scale Monroe and CC cases are also held to brute
force over every assignment."""

import gc
import hashlib
import math
import types
from itertools import combinations

import pytest

import prefalloc.core as core
import prefalloc.matching as matching
import prefalloc.solvers as solvers
from prefalloc import (
    Instance,
    Profile,
    ScoringFunction,
    exact_enumeration,
    gen_identical,
    gen_impartial_culture,
    make_cc,
    make_monroe,
)
from prefalloc.rng import SplitMix64, derive_seed

from oracles import (
    balanced_bounds,
    best_committee_value,
    exact_enumeration_reference,
    shuffled,
)

SEED = 4004
CASES = 40
OBJECTIVES = ("l1_dec", "l1_inc", "min_dec", "max_inc")
KINDS = ("ic", "identical", "two-order")
SYSTEMS = ("monroe", "cc", "general")
BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()


def _outcome(solver, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        report = solver(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return report.value, report.assignment.targets, report.algorithm, report.objective


def _assert_same(*args, **kwargs):
    got = _outcome(exact_enumeration, *args, **kwargs)
    want = _outcome(exact_enumeration_reference, *args, **kwargs)
    assert got == want
    return got


def _profile(n: int, m: int, kind: str, rng: SplitMix64) -> Profile:
    """Impartial culture, identical orders, two orders drawn per agent (ties
    between committees everywhere), or ``n // 2`` IC orders each with its
    copy under one relabelling of the alternatives (a committee ties its
    relabelled twin, and ``n`` is rounded down to even)."""
    if kind == "mirrored":
        relabel = shuffled(range(1, m + 1), rng)
        half = [shuffled(range(1, m + 1), rng) for _ in range(n // 2)]
        return Profile.from_orders(half + [[relabel[a - 1] for a in o] for o in half])
    if kind == "identical":
        return gen_identical(n, m)
    if kind == "ic":
        return Profile.from_orders([shuffled(range(1, m + 1), rng) for _ in range(n)])
    distinct = [shuffled(range(1, m + 1), rng) for _ in range(2)]
    return Profile.from_orders([distinct[rng.randrange(2)] for _ in range(n)])


def _psf(objective: str, m: int, rng: SplitMix64) -> ScoringFunction:
    """Borda, or a strictly monotone table covering m (sometimes longer),
    with repeated steps so that committees often tie."""
    dec = objective.endswith("_dec")
    if rng.randrange(2):
        return BD if dec else BI
    values = [0]
    for _ in range(m - 1 + rng.randrange(3)):
        values.append(values[-1] + 1 + rng.randrange(3))
    if dec:
        return ScoringFunction.from_table_dec(reversed(values))
    return ScoringFunction.from_table_inc(values)


def _general(profile: Profile, rng: SplitMix64) -> Instance:
    """Random costs, capacities and budget; some admit no committee."""
    n, m = profile.n, profile.m
    costs = tuple(1 + rng.randrange(3) for _ in range(m))
    return Instance(
        profile=profile,
        costs=costs,
        capacities=tuple(1 + rng.randrange(n) for _ in range(m)),
        budget=1 + rng.randrange(sum(costs)),
    )


def _sweep(system: str):
    """Yield ``(profile, instance, k, rng)``, ``rng`` being the case's own
    stream for further draws.  Every fourth case is desk scale (n <= 6,
    m <= 5); the rest reach n <= 40 and m <= 9 for CC, whose committees need
    no matching, and stay smaller where the old loop runs a flow matching
    per committee (and, for general instances, per subset)."""
    index = SYSTEMS.index(system)
    rng = SplitMix64(derive_seed(SEED, index))
    max_n, max_m = {"monroe": (12, 9), "cc": (40, 9), "general": (8, 7)}[system]
    for case in range(CASES):
        case_rng = SplitMix64(derive_seed(SEED, 1000 * (index + 1) + case))
        desk = case % 4 == 0
        m = 1 + rng.randrange(5 if desk else max_m)
        n = 1 + rng.randrange(6 if desk else max_n)
        k = 1 + rng.randrange(min(m, 4))
        profile = _profile(n, m, KINDS[case % 3], case_rng)
        if system == "monroe":
            instance = make_monroe(profile, k)
        elif system == "cc":
            instance = make_cc(profile, k)
        else:
            instance = _general(profile, case_rng)
        yield profile, instance, k, case_rng


def _golden_cases():
    """Seeded ``(instance, psf, objective, cap)`` calls: Monroe, CC and
    general instances on every profile kind, all four objectives, Borda and
    random tables, and a cap that is sometimes below the committee count.
    General instances draw costs, capacities and budgets; some admit no
    committee that hosts every agent."""
    rng = SplitMix64(derive_seed(SEED, 88))
    kinds = (*KINDS, "mirrored")
    for case in range(240):
        system = SYSTEMS[case % 3]
        max_n, max_m = {"monroe": (14, 8), "cc": (40, 9), "general": (10, 7)}[system]
        m = 1 + rng.randrange(max_m)
        n = 2 + rng.randrange(max_n)
        k = 1 + rng.randrange(min(m, 4))
        profile = _profile(n, m, kinds[case % 4], rng)
        if system == "monroe":
            instance = make_monroe(profile, k)
        elif system == "cc":
            instance = make_cc(profile, k)
        else:
            costs = tuple(1 + rng.randrange(4) for _ in range(m))
            instance = Instance(
                profile=profile,
                costs=costs,
                capacities=tuple(1 + rng.randrange(n + 1) for _ in range(m)),
                budget=1 + rng.randrange(sum(costs)),
            )
        cap = 1 + rng.randrange(40) if case % 5 == 0 else solvers.DEFAULT_ENUMERATION_CAP
        for objective in OBJECTIVES:
            yield instance, _psf(objective, m, rng), objective, cap


# The digest of every outcome of _golden_cases (value, targets, algorithm
# and objective, or exception type and message), one repr per line.
ENUMERATION_SHA256 = "b57deb19d1aa405f0b6f0b0e6676b06a0224d216779d0a2058664b08f38482f0"


def test_exact_enumeration_golden():
    digest = hashlib.sha256()
    for instance, psf, objective, cap in _golden_cases():
        got = _outcome(exact_enumeration, instance, psf, objective, cap)
        if isinstance(got[0], type):
            got = (got[0].__name__, got[1])
        digest.update(f"{got!r}\n".encode())
    assert digest.hexdigest() == ENUMERATION_SHA256


@pytest.mark.parametrize("system", SYSTEMS)
def test_exact_matches_per_committee_reference(system):
    for profile, instance, k, rng in _sweep(system):
        for objective in OBJECTIVES:
            psf = _psf(objective, profile.m, rng)
            got = _assert_same(instance, psf, objective)
            if system != "general" and profile.n <= 6 and profile.m <= 5:
                want = best_committee_value(profile, psf, k, system, objective)
                assert got[0] == want, (profile, k, objective)


def _large_cases():
    """Seeded Monroe and general cases above the sweep's sizes (n in 20..40,
    m in 6..8, Monroe committees of 2..4, general budgets of 2..4 with unit
    or double costs), one of each per profile kind, so that identical and
    two-order profiles make committees tie where most are skipped.  General
    capacities let most affordable committees host everyone."""
    rng = SplitMix64(derive_seed(SEED, 77))
    for case in range(6):
        case_rng = SplitMix64(derive_seed(SEED, 7700 + case))
        n, m = 20 + rng.randrange(21), 6 + rng.randrange(3)
        profile = _profile(n, m, KINDS[case % 3], case_rng)
        if case < 3:
            instance = make_monroe(profile, 2 + rng.randrange(3))
        else:
            instance = Instance(
                profile=profile,
                costs=tuple(1 + rng.randrange(2) for _ in range(m)),
                capacities=tuple(n // 4 + 1 + rng.randrange(n // 2) for _ in range(m)),
                budget=2 + rng.randrange(3),
            )
        yield instance, case_rng


def test_exact_matches_reference_above_the_sweep():
    for instance, rng in _large_cases():
        for objective in OBJECTIVES:
            _assert_same(instance, _psf(objective, instance.profile.m, rng), objective)


# What exact_enumeration_reference, which matches all 495 committees,
# returns under each objective (pinned: it takes 1.9 s per call).
IC_30_12_7_TARGETS = (11, 11, 2, 9, 2, 2, 11, 9, 9, 11, 4, 9, 2, 4, 4,
                      9, 9, 9, 11, 2, 11, 4, 2, 11, 2, 4, 9, 4, 4, 2)
IC_30_12_7_EGALITARIAN = (11, 11, 2, 9, 9, 2, 11, 9, 9, 11, 1, 9, 2, 11, 1,
                          9, 9, 1, 1, 9, 1, 11, 2, 11, 2, 2, 2, 1, 1, 2)


@pytest.mark.parametrize(
    "objective, psf, value",
    [("l1_dec", BD, 306), ("l1_inc", BI, 24), ("min_dec", BD, 8), ("max_inc", BI, 3)],
)
def test_exact_monroe_matches_only_committees_that_can_win(monkeypatch, objective, psf, value):
    # The seed and every committee whose CC value or load bound could still
    # win are matched: 7 l1 matchings of 495 committees (16 with the CC skip
    # alone), and 3 threshold searches of one probe each under min_dec and
    # max_inc (2 without the seed, whose search finds the same threshold).
    instance = make_monroe(gen_impartial_culture(30, 12, 7), 4)
    matchings, searches, probes = _count_solves(monkeypatch)
    got = _outcome(exact_enumeration, instance, psf, objective)
    if objective.startswith("l1_"):
        assert len(matchings) <= math.comb(12, 4) // 10 and not searches
        assert got == (value, IC_30_12_7_TARGETS, "exact_enumeration", objective)
    else:
        assert not matchings and len(searches) == len(probes) == 3
        assert got == (value, IC_30_12_7_EGALITARIAN, "exact_enumeration", objective)


def _cost(profile: Profile, psf: ScoringFunction, members, objective: str) -> int:
    """The optimal kernel cost of ``members`` under balanced loads."""
    table = matching._cost_table(profile, psf)
    bounds = balanced_bounds(profile.n, len(members))
    return matching._match(table, members, *bounds, objective.startswith("l1_"))[0]


def test_exact_monroe_seed_keeps_the_first_optimum():
    # Monroe starts from the greedy CC seed.  Where the seed is optimal but
    # an equal committee comes first in DFS order, that one must still win:
    # it ties the seed and is matched with ``below`` one above the seed's
    # value.  Mirrored profiles make such ties for every objective.
    rng = SplitMix64(derive_seed(SEED, 55))
    decided = {objective: 0 for objective in OBJECTIVES}
    for case in range(48):
        case_rng = SplitMix64(derive_seed(SEED, 5500 + case))
        m = 3 + rng.randrange(5)
        n = 4 + rng.randrange(11)
        k = 2 + rng.randrange(min(m - 1, 3))
        profile = _profile(n, m, (*KINDS, "mirrored")[case % 4], case_rng)
        for objective in OBJECTIVES:
            psf = _psf(objective, m, case_rng)
            got = _assert_same(make_monroe(profile, k), psf, objective)
            seed = solvers._cc_seed(matching._cost_table(profile, psf), k)
            winner = tuple(sorted(set(got[1])))  # k <= n: every member serves
            if winner != seed and _cost(profile, psf, winner, objective) == _cost(
                profile, psf, seed, objective
            ):
                assert winner < seed
                decided[objective] += 1
    assert all(decided.values()), decided


# exact_enumeration_reference's winner at IC (60, 12, 5), seed 1, l1_dec.
IC_60_12_5_TARGETS = (7, 10, 8, 10, 5, 7, 5, 7, 9, 7, 5, 8, 9, 5, 8, 7, 10, 9, 10, 8,
                      5, 10, 7, 5, 9, 9, 7, 7, 5, 8, 9, 7, 8, 10, 5, 5, 8, 10, 8, 9,
                      8, 7, 7, 8, 9, 10, 8, 5, 8, 10, 7, 10, 9, 9, 9, 5, 9, 10, 5, 10)


def test_exact_monroe_seed_counted_at_desk_scale(monkeypatch):
    # 8 of 792 committees are matched (97 with the CC skip alone).
    instance = make_monroe(gen_impartial_culture(60, 12, 1), 5)
    matchings, _, _ = _count_solves(monkeypatch)
    got = _outcome(exact_enumeration, instance, BD, "l1_dec")
    assert got == (612, IC_60_12_5_TARGETS, "exact_enumeration", "l1_dec")
    assert len(matchings) == 8


def test_exact_monroe_seed_counted_over_oracle_sweep_trials(monkeypatch):
    # perfbench's oracle_sweep Monroe oracles at seed 0: 100 IC trials,
    # n=12, m=7, k=3, 35 committees each.  l1_dec matches 3.71 committees
    # per call (7.91 with the CC skip alone); min_dec runs 2.23 threshold
    # searches (3.30) and 2.31 kernel solves (2.57).
    matchings, searches, probes = _count_solves(monkeypatch)
    for trial in range(100):
        trial_seed = derive_seed(0, trial)
        instance = make_monroe(gen_impartial_culture(12, 7, derive_seed(trial_seed, 1)), 3)
        exact_enumeration(instance, BD, "l1_dec")
        exact_enumeration(instance, BD, "min_dec")
    assert (len(matchings), len(searches), len(probes)) == (371, 223, 231)


def test_exact_cc_counted_over_oracle_sweep_trials(monkeypatch):
    # perfbench's oracle_sweep CC oracles at seed 0: 100 IC trials, n=60,
    # m=12, k=4, 495 committees each.  Each call matches its greedy seed and
    # every committee that improves on the incumbent (0.69 per call) through
    # _match, whose unbounded branch runs no kernel solve.
    matches = _count_calls(monkeypatch, solvers, "_match")
    solves = _count_calls(monkeypatch, matching, "_solve_bounded")
    for trial in range(100):
        trial_seed = derive_seed(0, trial)
        instance = make_cc(gen_impartial_culture(60, 12, derive_seed(trial_seed, 0)), 4)
        exact_enumeration(instance, BD, "l1_dec")
    assert (len(matches), len(solves)) == (169, 0)


def test_dfs_visits_the_old_committee_order():
    # By size, then lexicographically, within the budget; the carried bests
    # are each agent's least cost over the members.
    rng = SplitMix64(derive_seed(SEED, 99))
    for trial in range(60):
        m = 1 + rng.randrange(9)
        costs = [1 + rng.randrange(4) for _ in range(m)]
        budget = 1 + rng.randrange(sum(costs))
        columns = [[rng.randrange(10) for _ in range(5)] for _ in range(m)]
        visited = [
            committee
            for size in range(1, m + 1)
            for committee in solvers._walk(
                m, size, costs, budget, columns, [], 1, 0, [math.inf] * 5
            )
        ]
        assert [members for members, _ in visited] == [
            c
            for size in range(1, m + 1)
            for c in combinations(range(1, m + 1), size)
            if sum(costs[a - 1] for a in c) <= budget
        ]
        for members, best in visited:
            assert list(best) == [
                min(columns[a - 1][j] for a in members) for j in range(5)
            ]


def test_exact_enumeration_leaves_no_cycles():
    # The committee DFS and the budget count are module-level recursions, so
    # a finished call frees its frames on return: the cyclic collector finds
    # no function or cell of it.
    profile = _profile(12, 6, "ic", SplitMix64(17))
    general = Instance(profile=profile, costs=(1, 2, 1, 3, 2, 1), capacities=(6,) * 6, budget=4)
    flags = gc.get_debug()
    gc.collect()
    start = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for instance in (make_monroe(profile, 3), make_cc(profile, 3), general):
            for objective in OBJECTIVES:
                exact_enumeration(instance, BD if objective.endswith("_dec") else BI, objective)
        gc.collect()
        left = [o for o in gc.garbage[start:] if isinstance(o, (types.FunctionType, types.CellType))]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert left == []


def _short_table(m: int) -> ScoringFunction:
    return ScoringFunction.from_table_dec(range(m - 2, -1, -1))


def test_exact_matches_reference_on_edge_cases(monkeypatch):
    ic = _profile(9, 6, "ic", SplitMix64(11))
    general = Instance(
        profile=ic, costs=(1, 2, 1, 3, 2, 1),
        capacities=(9, 4, 3, 5, 2, 9), budget=3,
    )
    tiny = Instance(profile=ic, costs=(1,) * 6, capacities=(2,) * 6, budget=2)
    # A table short of m raises the score vector's error before any committee.
    matchings = [
        _count_calls(monkeypatch, module, name)
        for module, names in (
            (solvers, ("_match",)),
            (matching, ("match_monroe_l1", "match_egalitarian", "match_cc")),
            (matching, ("_nearest", "_solve_bounded")),
        )
        for name in names
    ]
    for instance, objective in (
        (make_monroe(ic, 3), "min_dec"), (make_cc(ic, 3), "l1_dec"), (general, "l1_dec")
    ):
        with pytest.raises(ValueError, match=r"^table covers 5 positions, needs 6$"):
            exact_enumeration(instance, _short_table(6), objective)
    assert not any(matchings)
    # The egalitarian winner is matched by its own threshold probe: every
    # kernel solve is a probe of a search, none an l1 matching.
    l1_matchings, searches, probes = _count_solves(monkeypatch)
    exact_enumeration(make_monroe(_profile(2, 5, "ic", SplitMix64(3)), 4), BD, "min_dec")
    assert searches and probes and not l1_matchings
    outcomes = [
        # No committee hosts every agent; more agents than committee seats.
        _assert_same(tiny, BD, "l1_dec"),
        _assert_same(make_monroe(_profile(2, 5, "ic", SplitMix64(3)), 4), BD, "min_dec"),
        _assert_same(make_monroe(_profile(1, 5, "ic", SplitMix64(4)), 3), BI, "l1_inc"),
        # Refusals before any committee.
        _assert_same(make_cc(ic, 3), BD, "l1_dec", enumeration_cap=19),
        # ``general`` affords 16 of its 63 nonempty subsets.
        _assert_same(general, BD, "l1_dec", enumeration_cap=15),
        _assert_same(make_cc(ic, 3), BI, "l1_dec"),
        _assert_same(make_cc(ic, 3), BD, "median"),
    ]
    raised = {o[0].__name__ for o in outcomes if isinstance(o[0], type)}
    assert raised == {"ValueError", "InfeasibleMatchingError", "EnumerationCapExceeded"}


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_solves(monkeypatch):
    """Record the kernel solves as ``(matchings, searches, probes)``: a
    solve is an l1 matching when the ``_match`` call that made it has
    ``total`` set and a threshold probe otherwise, and a threshold search is
    a ``_match`` call that ran at least one probe."""
    matchings, searches, probes = [], [], []
    solve, match = matching._solve_bounded, matching._match
    making = []  # where the running _match call's solves go

    def counted_solve(*args):
        making[-1].append(args[0])
        return solve(*args)

    def counted_match(*args):
        making.append(matchings if args[4] else probes)  # args[4] is total
        before = len(probes)
        try:
            return match(*args)
        finally:
            making.pop()
            if len(probes) > before:
                searches.append(args)

    monkeypatch.setattr(matching, "_solve_bounded", counted_solve)
    monkeypatch.setattr(matching, "_match", counted_match)
    monkeypatch.setattr(solvers, "_match", counted_match)
    return matchings, searches, probes


def _make_general(profile: Profile, k: int) -> Instance:
    """Unit costs and budget k; half of the agents fit on one member."""
    n, m = profile.n, profile.m
    return Instance(
        profile=profile, costs=(1,) * m,
        capacities=(n // 2,) * m, budget=k,
    )


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("make", [make_monroe, make_cc, _make_general])
def test_exact_validates_only_the_winner(monkeypatch, make, objective):
    profile = _profile(14, 7, "ic", SplitMix64(21))
    psf = BD if objective.endswith("_dec") else BI
    validations = _count_calls(monkeypatch, core, "validate_assignment")
    public_cc_matchings = _count_calls(monkeypatch, matching, "match_cc")
    nearest = _count_calls(monkeypatch, matching, "_nearest")
    l1_matchings, searches, probes = _count_solves(monkeypatch)
    matches = _count_calls(monkeypatch, solvers, "_match")
    report = exact_enumeration(make(profile, 3), psf, objective)
    assert len(validations) == 1  # 35 committees (63 for general), one validation
    assert not public_cc_matchings
    if make is make_cc:
        # The seed and each improvement take _match's unbounded branch:
        # each agent at its cheapest member, and no kernel solve.
        assert len(nearest) == len(matches) >= 1
        assert not l1_matchings and not probes
    else:
        assert not nearest
    if make is not make_cc and objective in ("min_dec", "max_inc"):
        # Committees are ranked by threshold searches; the winner's probe
        # matches it, so every kernel solve is a probe, none an l1 matching.
        assert searches and not l1_matchings
    else:
        assert not searches
    reference = exact_enumeration_reference(make(profile, 3), psf, objective)
    assert report.assignment == reference.assignment
