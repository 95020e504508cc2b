"""Differential sweep: ``exact_enumeration`` (one prefix DFS, only the winner
matched and validated) against the per-committee loop it replaced
(``oracles.exact_enumeration_reference``).  Value, targets, algorithm and
objective must agree, or both calls must raise the same exception type with
the same message.  Desk-scale Monroe and CC cases are also held to brute
force over every assignment."""

from itertools import combinations

import pytest

import prefalloc.core as core
import prefalloc.matching as matching
import prefalloc.solvers as solvers
from prefalloc import (
    Instance,
    Profile,
    ScoringFunction,
    SolverConfig,
    exact_enumeration,
    gen_identical,
    make_cc,
    make_monroe,
)
from prefalloc.rng import SplitMix64, derive_seed, shuffled

from oracles import best_committee_value, exact_enumeration_reference

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
    """Impartial culture, identical orders, or two orders drawn per agent
    (ties between committees everywhere)."""
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
        weights=(1,) * n,
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


@pytest.mark.parametrize("system", SYSTEMS)
def test_exact_matches_per_committee_reference(system):
    for profile, instance, k, rng in _sweep(system):
        for objective in OBJECTIVES:
            psf = _psf(objective, profile.m, rng)
            got = _assert_same(instance, psf, objective)
            if system != "general" and profile.n <= 6 and profile.m <= 5:
                want = best_committee_value(profile, psf, k, system, objective)
                assert got[0] == want, (profile, k, objective)


def test_dfs_visits_the_old_committee_order():
    # By size, then lexicographically, within the budget; the carried bests
    # are each agent's max (or min) score over the members.
    rng = SplitMix64(derive_seed(SEED, 99))
    for trial in range(60):
        m = 1 + rng.randrange(9)
        costs = [1 + rng.randrange(4) for _ in range(m)]
        budget = 1 + rng.randrange(sum(costs))
        columns = [[rng.randrange(10) for _ in range(5)] for _ in range(m)]
        pick = (max, min)[trial % 2]
        visited = list(
            solvers._committees(m, range(1, m + 1), costs, budget, columns, pick)
        )
        assert [members for members, _ in visited] == [
            c
            for size in range(1, m + 1)
            for c in combinations(range(1, m + 1), size)
            if sum(costs[a - 1] for a in c) <= budget
        ]
        for members, best in visited:
            assert list(best) == [
                pick(columns[a - 1][j] for a in members) for j in range(5)
            ]


def _short_table(m: int) -> ScoringFunction:
    return ScoringFunction.from_table_dec(range(m - 2, -1, -1))


def test_exact_matches_reference_on_edge_cases(monkeypatch):
    ic = _profile(9, 6, "ic", SplitMix64(11))
    general = Instance(
        profile=ic, weights=(1,) * 9, costs=(1, 2, 1, 3, 2, 1),
        capacities=(9, 4, 3, 5, 2, 9), budget=3,
    )
    tiny = Instance(
        profile=ic, weights=(1,) * 9, costs=(1,) * 6, capacities=(2,) * 6, budget=2,
    )
    # A table short of m raises the score vector's error before any committee.
    matchings = [
        _count_calls(monkeypatch, module, name)
        for module in (solvers, matching)
        for name in ("match_monroe_l1", "match_egalitarian", "match_cc")
    ]
    for instance, objective in (
        (make_monroe(ic, 3), "min_dec"), (make_cc(ic, 3), "l1_dec"), (general, "l1_dec")
    ):
        with pytest.raises(ValueError, match=r"^table covers 5 positions, needs 6$"):
            exact_enumeration(instance, _short_table(6), objective)
    assert not any(matchings)
    outcomes = [
        # No committee hosts every agent; more agents than committee seats.
        _assert_same(tiny, BD, "l1_dec"),
        _assert_same(make_monroe(_profile(2, 5, "ic", SplitMix64(3)), 4), BD, "min_dec"),
        _assert_same(make_monroe(_profile(1, 5, "ic", SplitMix64(4)), 3), BI, "l1_inc"),
        # Refusals before any committee.
        _assert_same(make_cc(ic, 3), BD, "l1_dec", config=SolverConfig(enumeration_cap=19)),
        # ``general`` affords 16 of its 63 nonempty subsets.
        _assert_same(general, BD, "l1_dec", config=SolverConfig(enumeration_cap=15)),
        _assert_same(make_cc(ic, 3), BI, "l1_dec"),
        _assert_same(make_cc(ic, 3), BD, "median"),
        _assert_same(
            Instance(profile=ic, weights=(2,) + (1,) * 8, costs=(1,) * 6,
                     capacities=(9,) * 6, budget=2),
            BD, "l1_dec",
        ),
    ]
    raised = {o[0].__name__ for o in outcomes if isinstance(o[0], type)}
    assert raised == {
        "ValueError", "InfeasibleMatchingError", "EnumerationCapExceeded",
        "UnsupportedInstanceError",
    }


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _make_general(profile: Profile, k: int) -> Instance:
    """Unit costs and budget k; half of the agents fit on one member."""
    n, m = profile.n, profile.m
    return Instance(
        profile=profile, weights=(1,) * n, costs=(1,) * m,
        capacities=(n // 2,) * m, budget=k,
    )


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("make", [make_monroe, make_cc, _make_general])
def test_exact_validates_only_the_winner(monkeypatch, make, objective):
    profile = _profile(14, 7, "ic", SplitMix64(21))
    psf = BD if objective.endswith("_dec") else BI
    validations = _count_calls(monkeypatch, core, "validate_assignment")
    cc_matchings = _count_calls(monkeypatch, solvers, "match_cc")
    inner_cc_matchings = _count_calls(monkeypatch, matching, "match_cc")
    report = exact_enumeration(make(profile, 3), psf, objective)
    assert len(validations) == 1  # 35 committees (63 for general), one validation
    if make is make_cc:
        assert len(cc_matchings) == 1 and not inner_cc_matchings
    else:
        assert not cc_matchings and not inner_cc_matchings
    reference = exact_enumeration_reference(make(profile, 3), psf, objective)
    assert report.assignment == reference.assignment
