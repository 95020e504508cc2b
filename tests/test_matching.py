"""Fixed-committee matching against enumeration oracles."""

import pytest

import prefalloc.matching as matching
from prefalloc import (
    Assignment,
    CapacityRegime,
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

from oracles import balanced_bounds, best_matching_value, match_egalitarian_reference

BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()
BALANCED = CapacityRegime.monroe_balanced()
UNBOUNDED = CapacityRegime.cc_unbounded()


def test_regime_bounds():
    assert BALANCED.bounds_for(3, 10) == ((3, 3, 3), (4, 4, 4))
    assert BALANCED.bounds_for(4, 12) == ((3, 3, 3, 3), (3, 3, 3, 3))
    assert UNBOUNDED.bounds_for(2, 5) == ((0, 0), (5, 5))
    explicit = CapacityRegime.explicit((1, 0), (2, 4))
    assert explicit.bounds_for(2, 5) == ((1, 0), (2, 4))
    with pytest.raises(ValueError):
        CapacityRegime.explicit((2,), (1,))
    with pytest.raises(ValueError):
        explicit.bounds_for(3, 5)


def test_match_cc_full_committee_gives_everyone_their_top():
    prof = gen_impartial_culture(6, 4, 12)
    asg = match_cc(prof, BD, range(1, 5))
    assert metric_l1(make_cc(prof, 4), BD, asg) == prof.n * (prof.m - 1)
    assert asg.targets == tuple(order[0] for order in prof.orders)


def test_match_cc_examples():
    prof = Profile.from_orders([(1, 2, 3), (2, 1, 3), (3, 2, 1)])
    asg = match_cc(prof, BD, [2])
    assert asg.targets == (2, 2, 2)
    assert metric_l1(make_cc(prof, 1), BD, asg) == 4
    asg = match_cc(prof, BD, [1, 3])
    assert asg.targets == (1, 1, 3)
    assert metric_l1(make_cc(prof, 2), BD, asg) == 5


def test_match_cc_rejects_bad_committee():
    prof = gen_impartial_culture(3, 3, 1)
    with pytest.raises(ValueError):
        match_cc(prof, BD, [])
    with pytest.raises(ValueError):
        match_cc(prof, BD, [1, 4])
    with pytest.raises(ValueError):
        match_cc(prof, BD, [2, 2])


def test_match_monroe_l1_identical_orders():
    prof = gen_identical(4, 4)
    asg = match_monroe_l1(prof, BD, [1, 2], BALANCED)
    assert metric_l1(make_monroe(prof, 2), BD, asg) == 10  # 3+3+2+2
    assert sorted(asg.targets) == [1, 1, 2, 2]


def test_match_monroe_l1_committee_of_one_is_match_cc():
    prof = gen_impartial_culture(6, 5, 8)
    asg = match_monroe_l1(prof, BD, [3], BALANCED)
    assert asg.targets == match_cc(prof, BD, [3]).targets == (3,) * 6


def test_match_monroe_l1_two_camps():
    prof = Profile.from_orders(
        [(1, 2, 3, 4), (1, 2, 3, 4), (2, 1, 3, 4), (2, 1, 3, 4)]
    )
    asg = match_monroe_l1(prof, BD, [1, 2], BALANCED)
    assert asg.targets == (1, 1, 2, 2)
    assert metric_l1(make_monroe(prof, 2), BD, asg) == 4 * (prof.m - 1)


def test_match_monroe_l1_infeasible_bounds():
    prof = gen_impartial_culture(5, 4, 9)
    with pytest.raises(InfeasibleMatchingError):
        match_monroe_l1(prof, BD, [1, 2], CapacityRegime.explicit((0, 0), (2, 2)))


def test_match_egalitarian_identical_orders():
    prof = gen_identical(4, 4)
    asg = match_egalitarian(prof, BD, [1, 2], BALANCED, "max_min_sat")
    assert metric_extreme(make_monroe(prof, 2), BD, asg, "min") == 2


def test_match_egalitarian_cc_regime_equals_match_cc():
    prof = gen_impartial_culture(7, 5, 31)
    inst = make_cc(prof, 2)
    egal = match_egalitarian(prof, BD, [2, 4], UNBOUNDED, "max_min_sat")
    direct = match_cc(prof, BD, [2, 4])
    assert metric_extreme(inst, BD, egal, "min") == metric_extreme(
        inst, BD, direct, "min"
    )


def test_match_egalitarian_mode_psf_pairing():
    prof = gen_impartial_culture(4, 3, 2)
    with pytest.raises(ValueError):
        match_egalitarian(prof, BI, [1, 2], BALANCED, "max_min_sat")
    with pytest.raises(ValueError):
        match_egalitarian(prof, BD, [1, 2], BALANCED, "min_max_dissat")
    with pytest.raises(ValueError):
        match_egalitarian(prof, BD, [1, 2], BALANCED, "nearest")


def _count_kernel_solves(monkeypatch):
    calls = []
    solve = matching._solve_bounded

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(matching, "_solve_bounded", counted)
    return calls


def test_match_egalitarian_solves_once(monkeypatch):
    # The threshold search grows one network without _solve_bounded; the
    # min-cost pass at the optimal threshold is the only kernel solve.
    calls = _count_kernel_solves(monkeypatch)
    rng = SplitMix64(8080)
    table = ScoringFunction.from_table_dec([9, 7, 6, 4, 3, 1, 0])
    for trial in range(60):
        m = 1 + rng.randrange(7)
        k = 1 + rng.randrange(min(4, m))
        n = k + rng.randrange(10)  # n >= k: some member has a lower bound
        prof = gen_impartial_culture(n, m, derive_seed(8080, trial))
        committee = sorted(a + 1 for a in sample_distinct(m, k, rng))
        psf, mode = [(BD, "max_min_sat"), (BI, "min_max_dissat"), (table, "max_min_sat")][
            trial % 3
        ]
        regime = BALANCED
        if trial % 2:
            lowers = [rng.randrange(2) for _ in range(k)]
            uppers = [lo + 1 + rng.randrange(n) for lo in lowers]
            if sum(lowers) <= n <= sum(min(hi, n) for hi in uppers) and any(
                lo > 0 or hi < n for lo, hi in zip(lowers, uppers)
            ):
                regime = CapacityRegime.explicit(lowers, uppers)
        del calls[:]
        got = match_egalitarian(prof, psf, committee, regime, mode)
        solves = len(calls)
        want = match_egalitarian_reference(prof, psf, committee, regime, mode)
        assert got == want, (trial, regime)
        assert solves == 1, (trial, regime)


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
    # The network builder raises before any level is searched, m = 1 included.
    prof = gen_impartial_culture(n, m, 5)
    regime = CapacityRegime.explicit(lowers, uppers)
    for psf, mode in ((BD, "max_min_sat"), (BI, "min_max_dissat")):
        with pytest.raises(InfeasibleMatchingError) as got:
            match_egalitarian(prof, psf, committee, regime, mode)
        with pytest.raises(InfeasibleMatchingError) as want:
            match_egalitarian_reference(prof, psf, committee, regime, mode)
        assert str(got.value) == str(want.value) == message


def test_match_egalitarian_single_alternative(monkeypatch):
    calls = _count_kernel_solves(monkeypatch)
    prof = gen_identical(5, 1)
    got = match_egalitarian(prof, BD, [1], BALANCED, "max_min_sat")
    assert len(calls) == 1  # one level: the min-cost pass alone
    assert got == match_egalitarian_reference(prof, BD, [1], BALANCED, "max_min_sat")
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
        asg = match_monroe_l1(prof, BD, committee, BALANCED)
        assert metric_l1(inst, BD, asg) == best_matching_value(
            prof, BD, committee, lowers, uppers, "l1_dec"
        )
        asg = match_monroe_l1(prof, BI, committee, BALANCED)
        assert metric_l1(inst, BI, asg) == best_matching_value(
            prof, BI, committee, lowers, uppers, "l1_inc"
        )
        asg = match_egalitarian(prof, BD, committee, BALANCED, "max_min_sat")
        assert metric_extreme(inst, BD, asg, "min") == best_matching_value(
            prof, BD, committee, lowers, uppers, "min_dec"
        )
        asg = match_egalitarian(prof, BI, committee, BALANCED, "min_max_dissat")
        assert metric_extreme(inst, BI, asg, "max") == best_matching_value(
            prof, BI, committee, lowers, uppers, "max_inc"
        )


def test_flow_assignments_pass_validation():
    rng = SplitMix64(70707)
    for trial in range(30):
        prof, committee, k = _random_case(rng, trial)
        inst = make_monroe(prof, k)
        asg = match_monroe_l1(prof, BD, committee, BALANCED)
        assert validate_assignment(inst, BD, asg) == ()


def test_cc_relaxation_dominates_balanced():
    rng = SplitMix64(80808)
    for trial in range(30):
        prof, committee, k = _random_case(rng, trial)
        inst_cc = make_cc(prof, k)
        free = metric_l1(inst_cc, BD, match_cc(prof, BD, committee))
        balanced = metric_l1(
            make_monroe(prof, k), BD, match_monroe_l1(prof, BD, committee, BALANCED)
        )
        assert free >= balanced


def test_matching_is_deterministic():
    prof = gen_impartial_culture(8, 5, 55)
    first = match_monroe_l1(prof, BD, [1, 3, 5], BALANCED)
    for _ in range(3):
        again = match_monroe_l1(prof, BD, [1, 3, 5], BALANCED)
        assert again.targets == first.targets
    e1 = match_egalitarian(prof, BD, [1, 3, 5], BALANCED, "max_min_sat")
    e2 = match_egalitarian(prof, BD, [1, 3, 5], BALANCED, "max_min_sat")
    assert e1.targets == e2.targets


def test_explicit_regime_lower_bounds_enforced():
    # lower bound of 3 on member 1 forces agents away from their favorite
    prof = Profile.from_orders([(2, 1, 3)] * 4)
    regime = CapacityRegime.explicit((3, 0), (4, 4))
    asg = match_monroe_l1(prof, BD, [1, 2], regime)
    assert sum(1 for t in asg.targets if t == 1) >= 3
