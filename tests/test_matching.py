"""Fixed-committee matching against enumeration oracles."""

import hashlib

import pytest

import prefalloc.matching as matching
from prefalloc import (
    Assignment,
    InfeasibleMatchingError,
    Profile,
    ScoringFunction,
    gen_identical,
    gen_impartial_culture,
    make_cc,
    make_monroe,
    match_cc,
    match_egalitarian,
    match_monroe_l1,
    metric_extreme,
    metric_l1,
    validate_assignment,
)
from prefalloc.rng import SplitMix64, derive_seed, sample_distinct

from oracles import (
    agent_scores,
    balanced_bounds,
    best_matching_value,
    feasible_assignments,
    match_egalitarian_reference,
    shuffled,
)

BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()


# Both public matchers, each with a psf of either direction.
MATCHERS = [(matcher, psf) for matcher in (match_monroe_l1, match_egalitarian) for psf in (BD, BI)]


def test_matchers_default_to_balanced_bounds():
    rng = SplitMix64(40404)
    for trial in range(20):
        prof, committee, k = _random_case(rng, trial)
        bounds = balanced_bounds(prof.n, k)
        for matcher, psf in MATCHERS:
            assert matcher(prof, psf, committee) == matcher(prof, psf, committee, *bounds)


@pytest.mark.parametrize(
    "lowers, uppers",
    [((1, 1), (1.5, 1.5)), ((0.5, 0.5), (2.5, 2.5)), ((True, 0), (2, 2)), ((0, 0), (2, "2"))],
)
def test_regime_refuses_non_integer_bounds(lowers, uppers):
    # A fractional bound would push a fractional flow through the network.
    prof = gen_impartial_culture(5, 4, 9)
    for matcher, psf in MATCHERS:
        with pytest.raises(ValueError, match=r"^bounds must be integers$"):
            matcher(prof, psf, [1, 3], lowers, uppers)


@pytest.mark.parametrize(
    "lowers, uppers, message",
    [
        pytest.param((-1, 0), (2, 5), "lower bounds must be nonnegative", id="negative"),
        pytest.param((2, 0), (1, 5), "upper bounds must dominate lower bounds", id="crossed"),
        pytest.param(
            (0, 0), (5,), "lower and upper bound lists differ in length", id="lengths"
        ),
        pytest.param(
            (0, 0, 0), (5, 5, 5), "explicit bounds cover 3 members, committee has 2", id="count"
        ),
        pytest.param((0, 0), None, "explicit bounds need lower and upper bounds", id="no-upper"),
        pytest.param(None, (5, 5), "explicit bounds need lower and upper bounds", id="no-lower"),
    ],
)
def test_matchers_refuse_bad_bounds(lowers, uppers, message):
    prof = gen_impartial_culture(5, 4, 9)
    for matcher, psf in MATCHERS:
        with pytest.raises(ValueError, match=f"^{message}$"):
            matcher(prof, psf, [1, 3], lowers, uppers)


def test_match_egalitarian_direction_follows_psf():
    # A decreasing psf maximizes the least satisfaction, an increasing one
    # minimizes the largest dissatisfaction: checked against every feasible
    # assignment, under balanced and explicit bounds.
    rng = SplitMix64(50505)
    for trial in range(40):
        prof, committee, k = _random_case(rng, trial)
        n = prof.n
        caps = [1 + rng.randrange(n) for _ in range(k)]
        caps[-1] += max(0, n - sum(caps))
        lowers = tuple(rng.randrange(min(cap, n // k) + 1) for cap in caps)
        for bounds in (balanced_bounds(n, k), (lowers, tuple(caps))):
            feasible = list(feasible_assignments(n, committee, *bounds))
            least = match_egalitarian(prof, BD, committee, *bounds).targets
            assert min(agent_scores(prof, BD, least)) == max(
                min(agent_scores(prof, BD, targets)) for targets in feasible
            )
            largest = match_egalitarian(prof, BI, committee, *bounds).targets
            assert max(agent_scores(prof, BI, largest)) == min(
                max(agent_scores(prof, BI, targets)) for targets in feasible
            )


def test_match_cc_full_committee_gives_everyone_their_top():
    prof = gen_impartial_culture(6, 4, 12)
    asg = match_cc(prof, range(1, 5))
    assert metric_l1(make_cc(prof, 4), BD, asg) == prof.n * (prof.m - 1)
    assert asg.targets == tuple(order[0] for order in prof.orders)


def test_match_cc_examples():
    prof = Profile.from_orders([(1, 2, 3), (2, 1, 3), (3, 2, 1)])
    asg = match_cc(prof, [2])
    assert asg.targets == (2, 2, 2)
    assert metric_l1(make_cc(prof, 1), BD, asg) == 4
    asg = match_cc(prof, [1, 3])
    assert asg.targets == (1, 1, 3)
    assert metric_l1(make_cc(prof, 2), BD, asg) == 5


def test_match_cc_rejects_bad_committee():
    prof = gen_impartial_culture(3, 3, 1)
    with pytest.raises(ValueError):
        match_cc(prof, [])
    with pytest.raises(ValueError):
        match_cc(prof, [1, 4])
    with pytest.raises(ValueError):
        match_cc(prof, [2, 2])
    # members are not truncated to integers
    for committee in ([1.7, 3], [True, 3]):
        with pytest.raises(ValueError, match=r"^committee members must be integers$"):
            match_cc(prof, committee)
    with pytest.raises(ValueError, match=r"^committee members must be integers$"):
        match_monroe_l1(prof, BD, [2.9, 3])


def test_match_monroe_l1_identical_orders():
    prof = gen_identical(4, 4)
    asg = match_monroe_l1(prof, BD, [1, 2])
    assert metric_l1(make_monroe(prof, 2), BD, asg) == 10  # 3+3+2+2
    assert sorted(asg.targets) == [1, 1, 2, 2]


def test_match_monroe_l1_committee_of_one_is_match_cc():
    prof = gen_impartial_culture(6, 5, 8)
    asg = match_monroe_l1(prof, BD, [3])
    assert asg.targets == match_cc(prof, [3]).targets == (3,) * 6


def test_match_monroe_l1_two_camps():
    prof = Profile.from_orders(
        [(1, 2, 3, 4), (1, 2, 3, 4), (2, 1, 3, 4), (2, 1, 3, 4)]
    )
    asg = match_monroe_l1(prof, BD, [1, 2])
    assert asg.targets == (1, 1, 2, 2)
    assert metric_l1(make_monroe(prof, 2), BD, asg) == 4 * (prof.m - 1)


def test_match_monroe_l1_infeasible_bounds():
    prof = gen_impartial_culture(5, 4, 9)
    with pytest.raises(InfeasibleMatchingError):
        match_monroe_l1(prof, BD, [1, 2], (0, 0), (2, 2))


def test_match_egalitarian_identical_orders():
    prof = gen_identical(4, 4)
    asg = match_egalitarian(prof, BD, [1, 2])
    assert metric_extreme(make_monroe(prof, 2), BD, asg, "min") == 2


def test_match_egalitarian_cc_regime_equals_match_cc():
    prof = gen_impartial_culture(7, 5, 31)
    inst = make_cc(prof, 2)
    egal = match_egalitarian(prof, BD, [2, 4], (0, 0), (7, 7))
    direct = match_cc(prof, [2, 4])
    assert metric_extreme(inst, BD, egal, "min") == metric_extreme(
        inst, BD, direct, "min"
    )


def _count_kernel_solves(monkeypatch):
    calls = []
    solve = matching._solve_bounded

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(matching, "_solve_bounded", counted)
    return calls


@pytest.mark.parametrize(
    "n, m, committee, lowers, uppers, message",
    [
        (4, 1, [1], (0,), (3,), "member upper bounds admit only 3 agents, instance has 4"),
        (4, 1, [1], (5,), (6,), "member lower bounds require 5 agents, instance has 4"),
        (6, 4, [1, 3], (0, 0), (2, 3), "member upper bounds admit only 5 agents, instance has 6"),
        (6, 4, [2, 4], (4, 3), (5, 5), "member lower bounds require 7 agents, instance has 6"),
    ],
)
def test_match_egalitarian_infeasible_totals_keep_their_message(
    n, m, committee, lowers, uppers, message
):
    # The first probe raises from _solve_bounded, m = 1 included.
    prof = gen_impartial_culture(n, m, 5)
    for psf in (BD, BI):
        with pytest.raises(InfeasibleMatchingError) as got:
            match_egalitarian(prof, psf, committee, lowers, uppers)
        with pytest.raises(InfeasibleMatchingError) as want:
            match_egalitarian_reference(prof, psf, committee, lowers, uppers)
        assert str(got.value) == str(want.value) == message


def test_match_egalitarian_single_alternative(monkeypatch):
    calls = _count_kernel_solves(monkeypatch)
    prof = gen_identical(5, 1)
    got = match_egalitarian(prof, BD, [1])
    assert len(calls) == 1  # one level: the floor's probe alone
    assert got == match_egalitarian_reference(prof, BD, [1])
    assert got.targets == (1,) * 5


def _random_case(rng, trial):
    n = 1 + rng.randrange(8)
    m = 1 + rng.randrange(5)
    k = 1 + rng.randrange(min(3, m))
    prof = gen_impartial_culture(n, m, derive_seed(1313, trial))
    committee = sorted(a + 1 for a in sample_distinct(m, k, rng))
    return prof, committee, k


def test_matching_equals_enumeration_oracle():
    rng = SplitMix64(60601)
    for trial in range(60):
        prof, committee, k = _random_case(rng, trial)
        lowers, uppers = balanced_bounds(prof.n, k)
        inst = make_monroe(prof, k)
        asg = match_monroe_l1(prof, BD, committee)
        assert metric_l1(inst, BD, asg) == best_matching_value(
            prof, BD, committee, lowers, uppers, "l1_dec"
        )
        asg = match_monroe_l1(prof, BI, committee)
        assert metric_l1(inst, BI, asg) == best_matching_value(
            prof, BI, committee, lowers, uppers, "l1_inc"
        )
        asg = match_egalitarian(prof, BD, committee)
        assert metric_extreme(inst, BD, asg, "min") == best_matching_value(
            prof, BD, committee, lowers, uppers, "min_dec"
        )
        asg = match_egalitarian(prof, BI, committee)
        assert metric_extreme(inst, BI, asg, "max") == best_matching_value(
            prof, BI, committee, lowers, uppers, "max_inc"
        )


def test_flow_assignments_pass_validation():
    rng = SplitMix64(70707)
    for trial in range(30):
        prof, committee, k = _random_case(rng, trial)
        inst = make_monroe(prof, k)
        asg = match_monroe_l1(prof, BD, committee)
        assert validate_assignment(inst, BD, asg) == ()


def _table(rng, m, dec):
    """Borda, or a strictly monotone table with random steps."""
    if rng.randrange(2):
        return BD if dec else BI
    values = [0]
    for _ in range(m - 1):
        values.append(values[-1] + 1 + rng.randrange(4))
    if dec:
        return ScoringFunction.from_table_dec(values[::-1])
    return ScoringFunction.from_table_inc(values)


def test_cc_relaxation_dominates_balanced():
    # Each agent's least cost over the committee, summed (l1_*) or at its
    # largest (min_dec, max_inc), bounds from below the cost of every
    # assignment under any loads, so also the kernel's optimum: the CC
    # floor _match refuses committees by.  So does the load floor: a member
    # with lower bound lo carries at least its lo cheapest costs (summed) or
    # its lo-th cheapest (largest).  ``below`` keeps only values strictly
    # under it, for both objectives.
    rng = SplitMix64(80808)
    for trial in range(30):
        prof, committee, k = _random_case(rng, trial)
        n, members = prof.n, tuple(committee)
        caps = [1 + rng.randrange(n) for _ in range(k)]
        caps[-1] += max(0, n - sum(caps))
        lowers = tuple(rng.randrange(min(cap, n // k) + 1) for cap in caps)
        regimes = [balanced_bounds(n, k), ((0,) * k, tuple(caps)), (lowers, tuple(caps))]
        for dec in (True, False):
            table = matching._cost_table(prof, _table(rng, prof.m, dec))
            best = [min(table[a - 1][j] for a in members) for j in range(n)]
            for bounds in regimes:
                costs = [
                    [table[t - 1][j] for j, t in enumerate(targets)]
                    for targets in feasible_assignments(n, members, *bounds)
                ]
                columns = [sorted(table[a - 1]) for a in members]
                for total, fold in ((True, sum), (False, max)):
                    loads = [fold(c[:lo]) for lo, c in zip(bounds[0], columns) if lo]
                    found = matching._match(prof, table, members, *bounds, total)
                    value, assignment = found
                    optimum = min(map(fold, costs))
                    assert fold(best) <= optimum == value
                    assert fold([0, *loads]) <= optimum
                    assert fold(table[t - 1][j] for j, t in enumerate(assignment.targets)) == value
                    assert matching._match(prof, table, members, *bounds, total, value) is None
                    assert matching._match(prof, table, members, *bounds, total, value + 1) == found


def test_matching_is_deterministic():
    prof = gen_impartial_culture(8, 5, 55)
    first = match_monroe_l1(prof, BD, [1, 3, 5])
    for _ in range(3):
        again = match_monroe_l1(prof, BD, [1, 3, 5])
        assert again.targets == first.targets
    e1 = match_egalitarian(prof, BD, [1, 3, 5])
    e2 = match_egalitarian(prof, BD, [1, 3, 5])
    assert e1.targets == e2.targets


def test_explicit_regime_lower_bounds_enforced():
    # lower bound of 3 on member 1 forces agents away from their favorite
    prof = Profile.from_orders([(2, 1, 3)] * 4)
    asg = match_monroe_l1(prof, BD, [1, 2], (3, 0), (4, 4))
    assert sum(1 for t in asg.targets if t == 1) >= 3


KERNEL_TARGETS_SHA256 = "7e039f5811b73205b57a75447d2d48aa2d4ba5a6e91a7f8e1945dd4bcfd352ad"


def _kernel_case(rng, trial):
    """An IC, identical or two-order profile (n <= 60, m <= 10), a committee
    and a Borda cost table in either direction."""
    n, m = 1 + rng.randrange(60), 1 + rng.randrange(10)
    kind = trial % 3
    if kind == 0:
        prof = Profile.from_orders([shuffled(range(1, m + 1), rng) for _ in range(n)])
    elif kind == 1:
        prof = gen_identical(n, m)
    else:
        distinct = [shuffled(range(1, m + 1), rng) for _ in range(2)]
        prof = Profile.from_orders([distinct[rng.randrange(2)] for _ in range(n)])
    members = tuple(sorted(a + 1 for a in sample_distinct(m, 1 + rng.randrange(m), rng)))
    psf = BD if rng.randrange(2) else BI
    return prof, members, psf


def _outcome(solve, *args):
    try:
        return repr(solve(*args))
    except InfeasibleMatchingError as error:
        return f"infeasible: {error}"


def _egalitarian_targets(*args):
    return match_egalitarian(*args).targets


def test_kernel_targets_golden():
    # The kernel is held to the edge-list reference it replaced
    # (test_kernel_differential.py); this digest pins both at once, so a tie
    # that moves shows here even if the reference moves with it.  It covers
    # what the kernel returns (targets, None or the error message) and
    # match_egalitarian's targets, under balanced and explicit bounds
    # (nonzero lowers, feasible or not) and with no ceiling or a middle cost
    # level.
    rng = SplitMix64(181818)
    digest = hashlib.sha256()
    for trial in range(48):
        prof, members, psf = _kernel_case(rng, trial)
        n, k = prof.n, len(members)
        table = matching._cost_table(prof, psf)
        lowers = tuple(rng.randrange(n // k + 2) for _ in range(k))
        uppers = tuple(lo + rng.randrange(n // k + 2) for lo in lowers)
        levels = sorted({c for a in members for c in table[a - 1]})
        for bounds in (balanced_bounds(n, k), (lowers, uppers)):
            for ceiling in (None, levels[len(levels) // 2]):
                outcome = _outcome(matching._solve_bounded, table, members, *bounds, ceiling)
                digest.update(f"{outcome}\n".encode())
            outcome = _outcome(_egalitarian_targets, prof, psf, members, *bounds)
            digest.update(f"{outcome}\n".encode())
    assert digest.hexdigest() == KERNEL_TARGETS_SHA256
