"""Core types, scoring functions, metrics, and the feasibility validator."""

import copy
import pickle
from fractions import Fraction

import pytest

from prefalloc import (
    Assignment,
    Instance,
    Profile,
    ScoringFunction,
    SolveReport,
    SolverConfig,
    ValidationError,
    Violation,
    assignment_cost,
    exact_enumeration,
    gen_identical,
    gen_impartial_culture,
    make_cc,
    make_monroe,
    metric_extreme,
    metric_l1,
    metric_min_delta,
    parse_instance,
    score,
    validate_assignment,
)
from prefalloc.rng import SplitMix64, derive_seed

BD = ScoringFunction.borda_dec()
BI = ScoringFunction.borda_inc()


def test_profile_rejects_non_permutations():
    with pytest.raises(ValueError):
        Profile.from_orders([(1, 1, 2)])
    with pytest.raises(ValueError):
        Profile.from_orders([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        Profile(n=2, m=2, orders=((1, 2),))
    # entries are not truncated to integers: 1.9 is no alternative index
    for orders in ([(1.9, 2), (2, 1)], [(1, 2), (2, True)]):
        with pytest.raises(ValueError, match=r"^order entries must be integers$"):
            Profile.from_orders(orders)
    # The constructor holds the same check: 1.0 == True == 1 passes the
    # permutation test, and the positions table cannot index by 1.0.
    for n, orders in ((1, ((1.0, 2.0),)), (2, ((True, 2), (2, 1)))):
        with pytest.raises(ValueError, match=r"^order entries must be integers$"):
            Profile(n, 2, orders)


def test_positions_are_inverse_of_orders():
    prof = Profile.from_orders([(3, 1, 2), (2, 3, 1)])
    assert prof.positions[0][3 - 1] == 1
    assert prof.positions[0][1 - 1] == 2
    assert prof.positions[1][1 - 1] == 3
    for i in range(prof.n):
        assert sorted(prof.positions[i]) == list(range(1, prof.m + 1))


def test_borda_score_values():
    assert score(BD, 1, 5) == 4
    assert score(BD, 5, 5) == 0
    assert score(BI, 3, 7) == 2
    assert score(BI, 1, 9) == 0


def test_score_position_out_of_range():
    with pytest.raises(ValueError):
        score(BD, 0, 5)
    with pytest.raises(ValueError):
        score(BD, 6, 5)


def test_table_families_extend_by_prepending_and_appending():
    # decreasing: values prepend as m grows, so smaller m reads the bottom
    dec = ScoringFunction.from_table_dec([9, 4, 2, 1, 0])
    assert [score(dec, p, 5) for p in range(1, 6)] == [9, 4, 2, 1, 0]
    assert [score(dec, p, 3) for p in range(1, 4)] == [2, 1, 0]
    assert dec.values(5) == (9, 4, 2, 1, 0) and dec.values(3) == (2, 1, 0)
    # increasing: values append, so smaller m reads the top
    inc = ScoringFunction.from_table_inc([0, 1, 3, 8, 20])
    assert [score(inc, p, 5) for p in range(1, 6)] == [0, 1, 3, 8, 20]
    assert [score(inc, p, 2) for p in range(1, 3)] == [0, 1]
    assert inc.values(5) == (0, 1, 3, 8, 20) and inc.values(2) == (0, 1)
    assert BD.values(4) == (3, 2, 1, 0) and BI.values(4) == (0, 1, 2, 3)
    for m in (1, 2, 7):
        for psf in (BD, BI):
            assert psf.values(m) == tuple(score(psf, p, m) for p in range(1, m + 1))


def test_table_invariants_enforced():
    with pytest.raises(ValueError):
        ScoringFunction.from_table_dec([3, 2, 1])  # must end at 0
    with pytest.raises(ValueError):
        ScoringFunction.from_table_dec([3, 3, 0])  # strictly decreasing
    with pytest.raises(ValueError):
        ScoringFunction.from_table_inc([1, 2, 3])  # must start at 0
    short = ScoringFunction.from_table_dec([2, 1, 0])
    with pytest.raises(ValueError, match=r"^table covers 3 positions, needs 4$"):
        score(short, 1, 4)
    with pytest.raises(ValueError, match=r"^table covers 3 positions, needs 4$"):
        short.values(4)


@pytest.mark.parametrize(
    "kind, values",
    [
        ("table_dec", (3.7, 1.2, 0)),
        ("table_inc", (0, True, 2.9)),
        ("table_dec", (3.5, 1.0, 0)),
        ("table_inc", (0, 1, "2")),
    ],
)
def test_table_entries_must_be_integers(kind, values):
    # Entries are not truncated: 3.7 is no score, and a float score would
    # reach the matching kernel's integer costs.
    make = getattr(ScoringFunction, "from_" + kind)
    for build in (make, lambda v: make(iter(v)), lambda v: ScoringFunction(kind, v)):
        with pytest.raises(ValueError, match=r"^table entries must be integers$"):
            build(values)


@pytest.mark.parametrize(
    "n, m, message",
    [
        pytest.param(True, 2, "profile sizes n and m must be integers", id="bool-n"),
        pytest.param(1, True, "profile sizes n and m must be integers", id="bool-m"),
        pytest.param(1.0, 2, "profile sizes n and m must be integers", id="float-n"),
        pytest.param(1, "2", "profile sizes n and m must be integers", id="str-m"),
        pytest.param(0, 2, "profile needs at least one agent and one alternative", id="zero-n"),
        pytest.param(1, 0, "profile needs at least one agent and one alternative", id="zero-m"),
    ],
)
def test_profile_sizes_must_be_positive_integers(n, m, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Profile(n=n, m=m, orders=((1, 2),))


def test_score_is_strictly_monotone():
    m = 7
    dec = [score(BD, p, m) for p in range(1, m + 1)]
    inc = [score(BI, p, m) for p in range(1, m + 1)]
    assert all(a > b for a, b in zip(dec, dec[1:]))
    assert all(a < b for a, b in zip(inc, inc[1:]))


def test_borda_dec_and_inc_are_complementary():
    m = 9
    for p in range(1, m + 1):
        assert score(BD, p, m) + score(BI, p, m) == m - 1


def test_metric_l1_direct_sums():
    prof = Profile.from_orders([(1, 2, 3), (1, 2, 3)])
    inst = make_cc(prof, 1)
    assert metric_l1(inst, BD, Assignment((1, 1))) == 4
    prof3 = Profile.from_orders([(1, 2, 3), (2, 1, 3), (3, 2, 1)])
    inst3 = make_cc(prof3, 3)
    assert metric_l1(inst3, BD, Assignment((1, 2, 3))) == 6


def test_metric_l1_all_bottom_is_zero():
    prof = Profile.from_orders([(1, 2, 3), (3, 1, 2)])
    inst = make_cc(prof, 2)
    worst = Assignment(tuple(order[-1] for order in prof.orders))
    assert metric_l1(inst, BD, worst) == 0


def test_metric_extreme_modes():
    prof = Profile.from_orders([(1, 2, 3), (3, 2, 1)])
    inst = make_cc(prof, 1)
    asg = Assignment((1, 1))
    assert metric_extreme(inst, BD, asg, "min") == 0
    assert metric_extreme(inst, BD, asg, "max") == 2
    with pytest.raises(ValueError):
        metric_extreme(inst, BD, asg, "median")


def test_single_agent_extremes_collapse_to_l1():
    prof = Profile.from_orders([(2, 1, 3)])
    inst = make_cc(prof, 1)
    asg = Assignment((1,))
    total = metric_l1(inst, BD, asg)
    assert metric_extreme(inst, BD, asg, "min") == total
    assert metric_extreme(inst, BD, asg, "max") == total


def _scores_0566():
    # m=6 so borda scores land on 0 and 5; one agent ranks the target last
    orders = [(2, 3, 4, 5, 6, 1)] + [(1, 2, 3, 4, 5, 6)] * 3
    prof = Profile.from_orders(orders)
    return make_cc(prof, 1), Assignment((1, 1, 1, 1))


def test_metric_min_delta_drop_counts():
    inst, asg = _scores_0566()
    assert metric_min_delta(inst, BD, asg, 0) == 0
    assert metric_min_delta(inst, BD, asg, 0.25) == 5
    assert metric_min_delta(inst, BD, asg, 0.2) == 0  # floor(0.8) = 0 dropped
    # a float is read as written: 0.3 of 10 agents drops 3, not 2
    inst = make_cc(gen_identical(10, 10), 10)
    asg = Assignment(tuple(range(1, 11)))  # distinct borda scores 9..0
    for delta, exact in ((0.3, Fraction(3, 10)), (0.7, Fraction(7, 10))):
        assert metric_min_delta(inst, BD, asg, delta) == exact * 10
        assert metric_min_delta(inst, BD, asg, exact) == exact * 10


def test_metric_min_delta_matches_extreme_at_zero():
    prof = gen_impartial_culture(7, 5, 11)
    inst = make_cc(prof, 5)
    asg = Assignment(tuple(order[1] for order in prof.orders))
    assert metric_min_delta(inst, BD, asg, 0) == metric_extreme(inst, BD, asg, "min")


def test_metric_min_delta_monotone_in_delta():
    prof = gen_impartial_culture(9, 6, 23)
    inst = make_cc(prof, 6)
    asg = Assignment(tuple(order[2] for order in prof.orders))
    values = [metric_min_delta(inst, BD, asg, d / 10) for d in range(10)]
    assert values == sorted(values)


def test_metric_min_delta_domain():
    inst, asg = _scores_0566()
    with pytest.raises(ValueError):
        metric_min_delta(inst, BD, asg, 1)
    with pytest.raises(ValueError):
        metric_min_delta(inst, BD, asg, -0.1)


def test_assignment_cost():
    prof = Profile.from_orders([(1, 2), (2, 1), (1, 2)])
    inst = Instance(
        profile=prof,
        costs=(7, 2),
        capacities=(3, 3),
        budget=9,
    )
    assert assignment_cost(inst, Assignment((1, 1, 1))) == 7
    assert assignment_cost(inst, Assignment((1, 2, 1))) == 9
    monroe = make_monroe(gen_impartial_culture(8, 4, 3), 2)
    assert assignment_cost(monroe, Assignment((1, 1, 1, 1, 3, 3, 3, 3))) == 2
    with pytest.raises(ValueError):
        assignment_cost(inst, Assignment((1, 3, 1)))


def test_validate_capacity_violation():
    prof = gen_impartial_culture(4, 3, 5)
    inst = make_monroe(prof, 2)  # capacity 2 each
    violations = validate_assignment(inst, BD, Assignment((1, 1, 1, 2)))
    assert [v.kind for v in violations] == ["capacity", "balance"]
    assert "alternative 1" in violations[0].detail
    assert violations[1].detail == "alternative 2 carries 1 agents, minimum 2"


def test_validate_monroe_needs_balanced_loads():
    # Four members of three agents each fit the capacity ceil(12/5) = 3, but
    # a Monroe committee of five carries 2..3 agents on each of five members;
    # metric_l1 would score this 42, above the Monroe optimum of 39.
    inst = make_monroe(gen_identical(12, 6), 5)
    unbalanced = Assignment((1,) * 3 + (2,) * 3 + (3,) * 3 + (4,) * 3)
    violations = validate_assignment(inst, BD, unbalanced)
    assert violations == (Violation("balance", "committee has 4 members, Monroe needs 5"),)
    with pytest.raises(ValidationError):
        metric_l1(inst, BD, unbalanced)
    assert exact_enumeration(inst, BD, "l1_dec").value == 39
    assert validate_assignment(make_cc(gen_identical(12, 6), 5), BD, unbalanced) == ()


def test_validate_monroe_with_fewer_agents_than_members():
    # n < K: min(n, K) = n members, each carrying exactly one agent.
    prof = gen_impartial_culture(2, 4, 7)
    inst = make_monroe(prof, 3)
    assert validate_assignment(inst, BD, Assignment((1, 2))) == ()
    violations = validate_assignment(inst, BD, Assignment((3, 3)))
    assert [v.kind for v in violations] == ["capacity", "balance"]
    assert violations[1].detail == "committee has 1 members, Monroe needs 2"
    best = exact_enumeration(inst, BD, "l1_dec").assignment
    assert validate_assignment(inst, BD, best) == ()
    assert len(best.committee) == 2


def test_validate_cc_never_hits_capacity():
    prof = gen_impartial_culture(4, 3, 6)
    inst = make_cc(prof, 1)
    assert validate_assignment(inst, BD, Assignment((3, 3, 3, 3))) == ()


def test_validate_budget_violation():
    prof = Profile.from_orders([(1, 2), (2, 1)])
    inst = Instance(profile=prof, costs=(1, 1), capacities=(2, 2), budget=1)
    violations = validate_assignment(inst, BD, Assignment((1, 2)))
    assert [v.kind for v in violations] == ["budget"]


def test_instance_refuses_non_integer_costs_capacities_and_budget():
    prof = Profile.from_orders([(1, 2), (2, 1)])
    fine = dict(costs=(1, 1), capacities=(2, 2), budget=2)
    for field, value, message in (
        ("costs", (1.5, 1), "every cost must be a positive integer"),
        ("costs", (True, 1), "every cost must be a positive integer"),
        ("capacities", (2, 2.0), "every capacity must be a positive integer"),
        ("capacities", (False, 2), "every capacity must be a positive integer"),
        ("budget", 2.5, "budget must be a positive integer"),
        ("budget", True, "budget must be a positive integer"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Instance(profile=prof, **{**fine, field: value})
    assert Instance(profile=prof, **fine).budget == 2


def test_validate_target_range_and_shape():
    prof = Profile.from_orders([(1, 2), (2, 1)])
    inst = make_cc(prof, 1)
    violations = validate_assignment(inst, BD, Assignment((1, 5)))
    assert any(v.kind == "target_range" for v in violations)
    violations = validate_assignment(inst, BD, Assignment((1,)))
    assert [v.kind for v in violations] == ["shape"]
    with pytest.raises(ValueError, match=r"^assignment targets must be positive integers$"):
        Assignment((True, 2))  # a bool is no alternative index


def test_validator_accepts_iff_all_clauses_hold():
    # capacity counts the agents assigned to a member
    prof = Profile.from_orders([(1, 2), (1, 2), (2, 1)])
    inst = Instance(profile=prof, costs=(1, 1), capacities=(2, 2), budget=2)
    assert validate_assignment(inst, None, Assignment((1, 2, 2))) == ()
    bad = validate_assignment(inst, None, Assignment((1, 1, 1)))
    assert [v.kind for v in bad] == ["capacity"]
    assert bad[0].detail == "alternative 1 carries 3 agents, capacity 2"


def test_metrics_raise_on_invalid_assignment():
    prof = gen_impartial_culture(4, 3, 7)
    inst = make_monroe(prof, 2)
    with pytest.raises(ValidationError):
        metric_l1(inst, BD, Assignment((1, 1, 1, 1)))


def test_averaging_inequality_on_random_assignments():
    rng = SplitMix64(404)
    for trial in range(40):
        n = 1 + rng.randrange(8)
        m = 2 + rng.randrange(5)
        prof = gen_impartial_culture(n, m, derive_seed(404, trial))
        inst = make_cc(prof, m)
        targets = tuple(1 + rng.randrange(m) for _ in range(n))
        asg = Assignment(targets)
        low = metric_extreme(inst, BD, asg, "min")
        high = metric_extreme(inst, BD, asg, "max")
        total = metric_l1(inst, BD, asg)
        assert low * n <= total <= high * n


def test_dec_inc_optimal_assignments_coincide():
    # maximizing borda_dec l1 equals minimizing borda_inc l1 (scores sum to m-1)
    prof = gen_impartial_culture(5, 4, 99)
    inst = make_cc(prof, 4)
    m, n = prof.m, prof.n
    best_dec = max(
        (metric_l1(inst, BD, Assignment(t)), t)
        for t in _all_targets(n, m)
    )
    best_inc = min(
        (metric_l1(inst, BI, Assignment(t)), t)
        for t in _all_targets(n, m)
    )
    assert best_dec[0] + best_inc[0] == n * (m - 1)
    assert best_dec[1] == best_inc[1]


def _all_targets(n, m):
    from itertools import product

    return product(range(1, m + 1), repeat=n)


def test_monroe_instance_invariants():
    prof = gen_impartial_culture(10, 4, 1)
    inst = make_monroe(prof, 4)
    assert inst.capacities == (3,) * 4  # ceil(10/4)
    assert inst.budget == 4 and inst.system_tag == "monroe"
    with pytest.raises(ValueError):
        Instance(
            profile=prof,
            costs=(1,) * 4,
            capacities=(2,) * 4,
            budget=4,
            system_tag="monroe",
            committee_size=4,
        )


# One fresh-object factory per record type of the package.
RECORDS = {
    "Violation": lambda: Violation("budget", "committee cost 3 exceeds budget 2"),
    "Profile": lambda: Profile(n=2, m=3, orders=((1, 2, 3), (3, 1, 2))),
    "ScoringFunction": lambda: ScoringFunction.from_table_dec([5, 1, 0]),
    "Assignment": lambda: Assignment((1, 3)),
    "Instance": lambda: make_monroe(Profile.from_orders([(1, 2, 3), (3, 1, 2)]), 2),
    "SolveReport": lambda: SolveReport(Assignment((1, 3)), "l1_dec", 3, "x", seed=4),
    "ParsedDocument": lambda: parse_instance("2 3\n1 2 3\n3 1 2\nbudget: 2\n"),
    "SolverConfig": lambda: SolverConfig(epsilon=0.5, seed=3),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    a, b = RECORDS[name](), RECORDS[name]()
    fields = type(a).__match_args__
    assert type(a).__name__ == name and a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a).startswith(f"{name}(")
    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(b, fields[0]))
    with pytest.raises(AttributeError):
        delattr(a, fields[0])
    assert a == b
    assert a != tuple(getattr(a, field) for field in fields)
    assert all(a != make() for other, make in RECORDS.items() if other != name)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if name == "Profile":
        assert a.positions is a.positions
    if name == "Assignment":
        assert a.committee is a.committee
